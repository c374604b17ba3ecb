"""Acceptance gate: one test per headline guarantee the package makes,
each printing its own pass/fail line under ``pytest -v``.

Every expected number here is either exact arithmetic or a frozen oracle
value cross-computed independently (quadrature, scipy integration, or
bisection against the closed form) before being written down.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (random_family_spec, simulated_gain, xi_fixed,
                     z_to_spherical)
from tlspurify.cli import main as cli_main
from tlspurify.config import RunConfig
from tlspurify.integrator import integrate
from tlspurify.liouville import qubit_purity, simulate
from tlspurify.model import (InitialStateSpec, ModelParams,
                             build_initial_state, min_eigenvalue, mu_max,
                             xi_max)
from tlspurify.optimal import pole_gains, s2_resonant_solution
from tlspurify.pole import (is_divergent, j_min, region_labels,
                            t_min_analytic, t_min_from_rates, t_min_numeric)
from tlspurify.reduced import make_rhs_rct, simulate_z, x_to_z
from tlspurify.scans import region_map

T_MIN_RATIO2 = 24.183991523122902       # frozen quadrature value, J=0.1 gamma=0.2
POLE_PURITY_BETA1 = 0.909646680538176   # frozen 1/2 + 2 eta^2 at beta = 1


def test_criterion_01_closed_form_pole_time():
    """Lossless limit hits pi/(2J) exactly; the damped value matches the
    frozen quadrature cross-check."""
    tic = time.perf_counter()
    lossless = t_min_from_rates(0.1, 0.0)
    damped = t_min_from_rates(0.1, 0.2)
    elapsed = time.perf_counter() - tic
    assert lossless == pytest.approx(math.pi / 0.2, abs=1e-9)
    assert damped == pytest.approx(T_MIN_RATIO2, abs=1e-6)
    assert elapsed < 1e-3


def test_criterion_02_numeric_matches_closed_form():
    tic = time.perf_counter()
    for ratio in (0.5, 1.0, 2.0, 3.0, 3.5):
        p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
        run = t_min_numeric(p, 0.0)
        want = t_min_analytic(p)
        assert run.status == "reached"
        assert abs(run.time - want) / want < 1e-6
    assert time.perf_counter() - tic < 1.0


def test_criterion_03_critical_divergence():
    """At and beyond the critical coupling the closed form is flagged
    divergent; just inside, the bare-start flow is still slower than ten
    lossless periods."""
    for ratio in (4.0, 4.2, 10.0):
        assert is_divergent(0.1, ratio * 0.1)
        assert t_min_from_rates(0.1, ratio * 0.1) == math.inf
    assert not is_divergent(0.1, 0.39)
    tic = time.perf_counter()
    p = ModelParams(kappa=0.1).with_gamma_over_j(3.99)
    run = t_min_numeric(p, 0.0, horizon_mult=12)
    elapsed = time.perf_counter() - tic
    assert run.time > 10.0 * p.t0
    assert elapsed < 5.0


def test_criterion_04_full_vs_reduced_equivalence():
    """Propagating all 16 coordinates and mapping down agrees with
    propagating the 8 invariant coordinates directly, from the fully
    correlated start."""
    tic = time.perf_counter()
    p = ModelParams(kappa=0.1)
    xi = xi_max(p)
    spec = InitialStateSpec(mu_q=0.5 * mu_max(p, xi), xi_re=xi)
    state = build_initial_state(p, spec)
    t_end = 2.0 * p.t0
    full = simulate(p, state, (0.0, t_end))
    red = simulate_z(p, x_to_z(state.x), (0.0, t_end))
    ts = np.linspace(0.0, t_end, 400)
    gap = float(np.abs(x_to_z(full.trajectory(ts))
                       - red.trajectory(ts)).max())
    elapsed = time.perf_counter() - tic
    assert gap < 1e-8
    assert elapsed < 5.0


def test_criterion_05_conservation_suite():
    """Ten random physical starts: trace pinned, spectrum stays positive,
    the radius never grows, and the zero-correlation ray conserves r + c."""
    p = ModelParams(kappa=0.1)
    rng = np.random.default_rng(20260822)
    t_end = 2.0 * p.t0
    for _ in range(10):
        spec = random_family_spec(p, rng)
        state = build_initial_state(p, spec)
        res = simulate(p, state, (0.0, t_end))
        traces = res.y[:, :4].sum(axis=1)
        assert np.abs(traces - 1.0).max() < 1e-9
        assert min(min_eigenvalue(x) for x in res.y) >= -1e-8
        r0, c0, th0 = z_to_spherical(x_to_z(state.x))[:3]
        rct = integrate(make_rhs_rct(p), (0.0, t_end),
                        np.array([r0, c0, th0]), rtol=1e-10, atol=1e-10)
        assert rct.trajectory.fs[:, 0].max() <= 1e-10
    z0 = x_to_z(build_initial_state(p, InitialStateSpec()).x)
    zres = simulate_z(p, z0, (0.0, t_end))
    zsum = np.array([sum(z_to_spherical(z)[:2]) for z in zres.y])
    assert np.abs(zsum - p.eta).max() < 1e-9


def test_criterion_06_defect_purity_ceiling():
    """The bare start arrives at exactly the defect's initial thermal
    purity: the qubit inherits the environment's polarization, no more."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    defect_purity = 0.5 + 2.0 * (p.a_t - 0.5) ** 2
    assert defect_purity == pytest.approx(POLE_PURITY_BETA1, rel=1e-13)
    run = t_min_numeric(p, 0.0)
    assert run.status == "reached"
    assert run.purity == pytest.approx(defect_purity, abs=1e-5)


def test_criterion_07_correlation_speedup():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xis = np.linspace(0.0, xi_max(p), 10)
    times = []
    for xi in xis:
        run = t_min_numeric(p, float(xi))
        assert run.status == "reached"
        times.append(run.time)
    assert times[-1] < times[0]
    for a, b in zip(times, times[1:]):
        assert b <= a + 1e-9


def test_criterion_08_coherence_oscillator_closed_form():
    """The decoupled coherence pair follows the damped-oscillator closed
    form, and dies exactly at the bare pole time."""
    mu = 0.3
    for gamma in (0.0, 0.2, 0.5):
        p = ModelParams(kappa=0.1).with_gamma(gamma)
        t_end = 3.0 * p.t0

        def rhs(t, y):
            return [y[1], -0.5 * p.gamma * y[1] - p.J ** 2 * y[0]]

        ref = solve_ivp(rhs, (0.0, t_end), [mu, 0.0], rtol=1e-12,
                        atol=1e-14, dense_output=True)
        ts = np.linspace(0.0, t_end, 120)
        err = np.abs(s2_resonant_solution(p, mu, ts) - ref.sol(ts)[0]).max()
        assert err < 1e-8
    for gamma in (0.0, 0.2):
        p = ModelParams(kappa=0.1).with_gamma(gamma)
        assert abs(s2_resonant_solution(p, mu, t_min_analytic(p))) < 1e-8


def test_criterion_09_coherence_gain():
    """No gain without correlations; positive gain with them, growing
    with the initial qubit coherence."""
    p = ModelParams(kappa=0.1)
    lead0 = t_min_numeric(p, 0.0)
    assert lead0.status == "reached"
    mu0 = mu_max(p, 0.0)
    assert abs(pole_gains(p, 0.0, [mu0], lead0.time)[0, 0]) < 1e-6
    assert abs(simulated_gain(p, 0.0, mu0, lead0.time)) < 1e-6
    xi = 0.5 * xi_max(p)
    cap = mu_max(p, xi)
    t_pole = t_min_numeric(p, xi).time
    mus = [f * cap for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
    gains = pole_gains(p, xi, mus, t_pole)[:, 0].tolist()
    assert gains[0] > 0.0
    assert all(a < b for a, b in zip(gains, gains[1:]))
    for mu, gain in zip(mus, gains):
        assert abs(gain - simulated_gain(p, xi, mu, t_pole)) < 1e-13


def test_criterion_10_region_map():
    """The default coupling-correlation map carries all three fate labels,
    its A boundary sits within one cell of the bisected threshold, and the
    two reference starts classify as stalling-en-route and escaping."""
    tic = time.perf_counter()
    cfg = RunConfig.from_dict({})
    table = region_map(cfg)
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    assert len(table.rows) == 50 * 50

    labels = {r[4] for r in table.rows}
    assert {"A", "B", "C"} <= labels

    base = cfg.params().replace(beta=0.1)
    jm = j_min(base.gamma)
    xi_cap = xi_max(base)
    step = xi_cap / 49.0
    rows_by_j: dict[float, list] = {}
    for r in table.rows:
        rows_by_j.setdefault(r[0], []).append(r)
    checked = 0
    for jf, row in rows_by_j.items():
        row.sort(key=lambda r: r[2])
        a_cells = [r[3] for r in row if r[4] == "A"]
        non_a = [r[3] for r in row if r[4] != "A"]
        if not a_cells or not non_a:
            continue
        th = xi_fixed(base.replace(J=jf * jm))
        assert max(a_cells) <= th.value + 1e-12
        assert th.value <= min(non_a) + 1e-12
        assert min(non_a) - max(a_cells) <= step * 1.0001
        checked += 1
    assert checked > 10

    p09 = base.replace(J=0.9 * jm)
    th09 = xi_fixed(p09).value
    assert region_labels([p09] * 2, [2.0 * th09, 5.0 * th09]) == ["B", "C"]


def test_criterion_11_rotating_frame_validity():
    """At weak coupling the rotating-frame propagation tracks the lab
    frame to well under a percent in qubit purity."""
    p = ModelParams(J=0.01, kappa=0.1).with_gamma_over_j(2.0)
    t_end = t_min_analytic(p)
    state = build_initial_state(p, InitialStateSpec())
    ts = np.linspace(0.0, t_end, 400)
    runs = {frame: simulate(p, state, (0.0, t_end), frame=frame)
            for frame in ("rwa", "lab")}
    pa = qubit_purity(runs["rwa"].trajectory(ts))
    pb = qubit_purity(runs["lab"].trajectory(ts))
    assert np.abs(pa - pb).max() < 0.01


def test_criterion_12_worker_determinism(tmp_path):
    f1 = tmp_path / "w1.csv"
    f8 = tmp_path / "w8.csv"
    assert cli_main(["scan-gamma", "--workers", "1", "--out", str(f1)]) == 0
    assert cli_main(["scan-gamma", "--workers", "8", "--out", str(f8)]) == 0
    b1 = f1.read_bytes()
    b8 = f8.read_bytes()
    assert b1 == b8
    assert b1.startswith(b"# scan-gamma\n")
    assert len(b1.splitlines()) > 45
