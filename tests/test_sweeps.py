"""Sweep drivers: cell values, labels, metadata, and worker determinism."""

from __future__ import annotations

import io
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlspurify
from tlspurify import integrator
from tlspurify.cli import main as cli_main
from tlspurify.config import MAX_ROWS, ConfigError, RunConfig
from tlspurify.model import (BOUNDARY_RTOL, InitialStateSpec, ModelParams,
                             build_initial_state, mu_max, xi_max)
from tlspurify.output import write_table
from tlspurify.pole import t_min_from_rates, t_min_numeric
from tlspurify.reduced import x_to_z, z_generator
from tlspurify.scans import region_map, scan_beta, scan_gamma
from tlspurify.sweeps import coherence_map, purity_trace, simulate_trace

from oracles import (affine_run, family_x, mp_boundary_margin,
                     mp_min_eigenvalue, reduced_trace, simulated_gain)

T0 = 15.707963267948966                 # pi / (2 J) at J = 0.1
RATIO_AT_2 = 1.5396007178390019         # t_min / t0 at gamma / J = 2
POLE_PURITY_BETA1 = 0.909646680538176
BETA_STAR = 0.1702752079219969          # kappa = 0.1, J = 0.1
GAMMA_BETA01 = 0.6716591827020164
XI_MAX_BETA01 = 0.24690493263942287


def _cfg(**sections) -> RunConfig:
    return RunConfig.from_dict(sections)


def _floats(cells):
    return [c for c in cells if not isinstance(c, str)]


# ====================================================================
# Single trajectory
# ====================================================================

def test_simulate_trace_resonant_default():
    tab = simulate_trace(_cfg(run={"samples": 51}))
    assert tab.command == "simulate"
    assert len(tab.columns) == 19
    assert tab.columns[:3] == ["t", "purity_qubit", "purity_tls"]
    assert len(tab.rows) == 51
    assert tab.metadata["pole_status"] == "reached"
    assert tab.metadata["frame"] == "rwa"
    assert tab.metadata["n_steps"] > 0
    # the run is cut at the drift-flow pole time and arrives at the
    # thermal-defect purity ceiling
    p = _cfg().params()
    assert tab.metadata["t_end"] == pytest.approx(
        t_min_from_rates(p.J, p.gamma), rel=1e-5)
    assert tab.rows[-1][0] == pytest.approx(tab.metadata["t_end"], rel=1e-14)
    assert tab.rows[-1][1] == pytest.approx(POLE_PURITY_BETA1, abs=1e-6)


def test_simulate_trace_no_coupling():
    tab = simulate_trace(_cfg(run={"samples": 21, "horizon": 1.0},
                              model={"J": 0.0}))
    assert tab.metadata["pole_status"] == "not-tracked"
    assert tab.metadata["t_end"] == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_simulate_trace_detuned_not_tracked():
    tab = simulate_trace(_cfg(run={"samples": 21, "horizon": 1.0},
                              drive={"epsilon": 2.5}))
    assert tab.metadata["pole_status"] == "not-tracked"


@pytest.mark.parametrize("xi_re", [-0.05, 0.05])
def test_simulate_trace_tracks_only_a_start_the_engine_knows(xi_re):
    """The pole engine knows coherence only on the non-negative in-phase
    axis: a start at -0.05 runs to the horizon, one at +0.05 ends on its
    own pole, where Re xi (x11) is zero."""
    cfg = _cfg(run={"samples": 21}, state={"xi_re": xi_re})
    tab = simulate_trace(cfg)
    if xi_re < 0.0:
        assert tab.metadata["pole_status"] == "not-tracked"
        assert tab.metadata["t_end"] == cfg.horizon * T0
    else:
        assert tab.metadata["pole_status"] == "reached"
        assert abs(tab.rows[-1][tab.columns.index("x11")]) < 1e-12


def test_simulate_trace_closed_system_is_frozen():
    tab = simulate_trace(_cfg(run={"samples": 21, "horizon": 1.0},
                              model={"J": 0.0, "kappa": 0.0},
                              state={"mu_q": 0.2, "xi_re": 0.05}))
    ps = [r[1] for r in tab.rows]
    assert max(ps) - min(ps) < 1e-12


# ====================================================================
# Pole-time scans
# ====================================================================

def test_scan_gamma_cells():
    tab = scan_gamma(_cfg(sweep={"axes": [
        {"name": "gamma_over_j", "start": 0.0, "stop": 4.4, "count": 12}]}))
    assert tab.command == "scan-gamma"
    assert tab.columns == ["gamma_over_j", "gamma",
                           "t_over_t0_uncorrelated", "t_over_t0_correlated"]
    assert len(tab.rows) == 12
    assert tab.metadata["t0"] == pytest.approx(T0, rel=1e-15)
    assert tab.metadata["J"] == 0.1

    by_ratio = {round(r[0], 10): r for r in tab.rows}
    # lossless point: exactly the bare pi/(2J) for the thermal start, and
    # strictly faster for the correlated one
    assert by_ratio[0.0][2] == pytest.approx(1.0, rel=1e-12)
    assert by_ratio[0.0][3] < 1.0
    assert by_ratio[2.0][2] == pytest.approx(RATIO_AT_2, abs=1e-9)
    # at this temperature both columns blow up at the critical coupling
    for r in (4.0, 4.4):
        assert by_ratio[r][2] == "divergent"
        assert by_ratio[r][3] == "divergent"
    # where both are finite the correlated start always arrives earlier
    for row in tab.rows:
        if not isinstance(row[2], str) and not isinstance(row[3], str):
            assert row[3] < row[2]
    # the thermal-start column grows monotonically toward the divergence
    uncs = _floats([r[2] for r in tab.rows])
    assert all(a < b for a, b in zip(uncs, uncs[1:]))


def test_scan_beta_cells():
    tab = scan_beta(_cfg(run={"horizon": 6.0}, sweep={"axes": [
        {"name": "beta", "start": 0.05, "stop": 4.0, "count": 8}]}))
    assert tab.command == "scan-beta"
    assert tab.columns == ["beta", "gamma", "xi_max",
                           "t_over_t0_uncorrelated", "t_over_t0_correlated"]
    assert tab.metadata["beta_star"] == pytest.approx(BETA_STAR, rel=1e-13)
    # correlation window shrinks as the bath cools
    xi_col = [r[2] for r in tab.rows]
    assert all(a > b for a, b in zip(xi_col, xi_col[1:]))
    # headline row: below beta_star the thermal start diverges while the
    # correlated one still reaches the pole
    hot = tab.rows[0]
    assert hot[0] < BETA_STAR
    assert hot[3] == "divergent"
    assert isinstance(hot[4], float) and hot[4] < 1.0
    for row in tab.rows[1:]:
        assert isinstance(row[3], float)        # warm side all reachable
        assert row[4] < row[3]


def test_scan_beta_without_crossing():
    # kappa >= 4J: the bare rate exceeds the critical value at every
    # temperature, so there is no crossing to report
    tab = scan_beta(_cfg(model={"kappa": 0.5}, run={"horizon": 6.0},
                         sweep={"axes": [{"name": "beta", "start": 0.1,
                                          "stop": 1.0, "count": 3}]}))
    assert "beta_star" not in tab.metadata
    for row in tab.rows:
        assert row[3] == "divergent"
        assert row[4] == "divergent"


# ====================================================================
# Region map
# ====================================================================

def test_region_map_labels():
    tab = region_map(_cfg(sweep={"axes": [
        {"name": "j_frac", "start": 0.6, "stop": 1.05, "count": 6},
        {"name": "xi_frac", "start": 0.0, "stop": 1.0, "count": 6}]}))
    assert tab.command == "region-map"
    assert tab.columns == ["j_frac", "J", "xi_frac", "xi", "region"]
    assert len(tab.rows) == 36
    assert tab.metadata["beta"] == 0.1          # map default, not the model's
    assert tab.metadata["gamma"] == pytest.approx(GAMMA_BETA01, rel=1e-13)
    assert tab.metadata["j_min"] == pytest.approx(GAMMA_BETA01 / 4, rel=1e-13)
    assert tab.metadata["xi_max"] == pytest.approx(XI_MAX_BETA01, rel=1e-12)

    cells = {(round(r[0], 6), round(r[2], 6)): r[4] for r in tab.rows}
    assert set(cells.values()) <= {"A", "B", "C", "U"}
    # uncorrelated column: blocked from the start whenever J <= j_min
    assert cells[(0.6, 0.0)] == "A"
    assert cells[(1.05, 0.0)] == "C"
    # a little coherence unblocks the start but the flow stalls en route;
    # enough coherence escapes to the pole
    assert cells[(0.6, 0.2)] == "B"
    assert cells[(0.6, 1.0)] == "C"
    # above the critical coupling every start reaches
    top = [r[4] for r in tab.rows if r[0] == 1.05]
    assert top == ["C"] * 6
    # J column really is j_frac * j_min
    row0 = tab.rows[0]
    assert row0[1] == pytest.approx(0.6 * tab.metadata["j_min"], rel=1e-13)


def test_region_map_explicit_beta():
    tab = region_map(_cfg(model={"beta": 0.4}, sweep={"axes": [
        {"name": "j_frac", "start": 0.8, "stop": 1.0, "count": 2},
        {"name": "xi_frac", "start": 0.0, "stop": 0.5, "count": 2}]}))
    assert tab.metadata["beta"] == 0.4


# ====================================================================
# Coherence-gain map
# ====================================================================

def test_coherence_map_cells():
    tab = coherence_map(_cfg(sweep={"axes": [
        {"name": "xi_frac", "start": 0.0, "stop": 1.0, "count": 5},
        {"name": "mu_frac", "start": 0.0, "stop": 1.0, "count": 5}]}))
    assert tab.command == "coherence-map"
    assert tab.columns == ["xi_frac", "xi", "mu_q", "mu_max", "delta_p"]
    assert len(tab.rows) == 25
    assert tab.metadata["xi_max"] == pytest.approx(0.09424579782190404,
                                                   rel=1e-12)
    assert tab.metadata["mu_max_uncorrelated"] == pytest.approx(
        0.44340944198503696, rel=4e-16, abs=0.0)

    grid = {(round(r[0], 6), round(r[2], 6)): r for r in tab.rows}
    mus = sorted({k[1] for k in grid})
    # mu = 0 erases the coherence block: the gain is identically zero
    for xf in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert grid[(xf, 0.0)][4] == 0.0
    # xi = 0: the coherence dies exactly at arrival, so no gain either
    for mu in mus:
        cell = grid[(0.0, mu)][4]
        assert isinstance(cell, float) and abs(cell) < 1e-12
    # interior: the gain is positive and grows with both knobs
    col = [grid[(0.25, mu)][4] for mu in mus[1:4]]
    assert all(isinstance(v, float) and v > 0.0 for v in col)
    assert col[0] < col[1] < col[2]
    row = [grid[(xf, mus[1])][4] for xf in (0.25, 0.5, 0.75)]
    assert row[0] < row[1] < row[2]
    # beyond the positivity boundary the cell is labeled, not computed
    assert grid[(0.25, mus[4])][4] == "unphysical"
    assert all(grid[(1.0, mu)][4] == "unphysical" for mu in mus[1:])


def test_coherence_map_cells_match_delta_p():
    """Each computed cell of the map is the gain of a node-stepped reduced
    run from that start to its pole time."""
    cfg = _cfg(run={"workers": 2}, sweep={"axes": [
        {"name": "xi_frac", "start": 0.0, "stop": 1.0, "count": 4},
        {"name": "mu_frac", "start": 0.0, "stop": 1.0, "count": 4}]})
    tab = coherence_map(cfg)
    params = cfg.params()
    computed = 0
    for xf, xi, mu, cap, cell in tab.rows:
        assert cap == mu_max(params, xi)
        if isinstance(cell, str):
            assert cell == "unphysical" and mu > cap
            continue
        t_pole = t_min_numeric(params, xi).time
        assert abs(cell - simulated_gain(params, xi, mu, t_pole)) < 1e-13
        computed += 1
    assert computed >= 8


@settings(max_examples=40, deadline=None)
# gamma/J = 3.99: the reduced flow's exponential read p / p_s1 - 1 as
# exactly 0 in every cell of this row
@example(beta=1.0, kappa=0.1, ratio=3.99, xi_frac=0.05, mu_lo=0.2,
         mu_span=0.4)
@given(beta=st.floats(0.05, 10.0), kappa=st.floats(0.001, 3.0),
       ratio=st.one_of(st.floats(0.01, 3.999),
                       st.floats(3.999, 4.0, exclude_max=True)),
       xi_frac=st.floats(1e-6, 1.0), mu_lo=st.floats(0.01, 0.5),
       mu_span=st.floats(0.1, 0.5))
def test_coherence_gain_is_positive_and_grows_with_mu(beta, kappa, ratio,
                                                      xi_frac, mu_lo,
                                                      mu_span):
    """The paper's coherence claim: with correlations (xi > 0), every
    coherence-map cell whose start reaches the pole gains purity from its
    coherence, and the gain grows strictly with mu.  The horizon is 100
    t0, so a reached pole comes at qt < 160 (q = gamma/4 < J), where the
    squared coherence is e^{-2qt} > 1e-139 times a factor that vanishes
    only as xi -> 0: with xi_frac >= 1e-6 no gain underflows."""
    p = ModelParams(beta=beta, kappa=kappa)
    cfg = _cfg(model={"beta": beta, "kappa": kappa, "J": p.gamma / ratio},
               run={"horizon": 100.0}, sweep={"axes": [
                   {"name": "xi_frac", "start": xi_frac, "stop": 1.0,
                    "count": 2},
                   {"name": "mu_frac", "start": mu_lo,
                    "stop": mu_lo + mu_span, "count": 4}]})
    rows = coherence_map(cfg).rows
    for k in range(0, len(rows), 4):
        gains = [r[4] for r in rows[k:k + 4] if not isinstance(r[4], str)]
        assert all(g > 0.0 for g in gains)
        assert all(a < b for a, b in zip(gains, gains[1:]))


def test_coherence_map_cold_bath_labels_follow_the_exact_boundary():
    """At beta = 10 every cell whose start lies past the exact boundary
    (50 digits from the float populations) is labelled "unphysical", and
    every cell inside it is computed.  An eigenvalue test against an
    absolute 1e-10 computed a gain for 137 cells past it."""
    cfg = _cfg(model={"beta": 10.0})
    params = cfg.params()
    past = 0
    for xf, xi, mu, cap, cell in coherence_map(cfg).rows:
        margin = mp_boundary_margin(params, complex(mu), complex(xi))
        if margin < -10.0 * BOUNDARY_RTOL:
            assert cell == "unphysical", (xf, mu)
            past += 1
        elif margin > 10.0 * BOUNDARY_RTOL:
            assert isinstance(cell, float), (xf, mu)
    assert past > 137


def test_coherence_map_keeps_the_gain_of_boundary_cells():
    """The cells of the default 21 x 21 grid that lie on the boundary
    analytically, mu_frac^2 = 1 - xi_frac, are computed: (0, 1),
    (0.75, 0.5) and (1, 0).  The ceiling reads exactly 0 at xi_frac = 1."""
    tab = coherence_map(_cfg())
    on_boundary = [(i, j) for i in range(21) for j in range(21)
                   if j * j == 400 - 20 * i]
    assert on_boundary == [(0, 20), (15, 10), (20, 0)]
    for i, j in on_boundary:
        xf, _, _, _, cell = tab.rows[21 * i + j]
        assert xf == i / 20
        assert isinstance(cell, float)
    assert all(r[3] == 0.0 for r in tab.rows if r[0] == 1.0)


def test_coherence_map_runs_in_the_cold_limit():
    """At beta = 40 the qubit's excited population rounds to 0, so
    xi_max = mu_max = 0: every start is the thermal one, a rest point of
    the flow that never reaches the pole, so every cell is "divergent"
    and none "unphysical"."""
    cfg = _cfg(model={"beta": 40.0})
    assert mu_max(cfg.params(), 0.0) == 0.0
    tab = coherence_map(cfg)
    assert len(tab.rows) == 21 * 21
    assert tab.metadata["xi_max"] == tab.metadata["mu_max_uncorrelated"] == 0.0
    assert {r[4] for r in tab.rows} == {"divergent"}


# ====================================================================
# Purity traces
# ====================================================================

def test_purity_trace_levels():
    cfg = _cfg(run={"samples": 51}, sweep={"mu_count": 3})
    tab = purity_trace(cfg)
    assert tab.command == "purity-trace"
    assert tab.columns == ["xi", "mu_q", "t", "purity"]
    assert len(tab.rows) == 2 * 3 * 51
    md = tab.metadata
    assert md["p_tls_initial"] == pytest.approx(POLE_PURITY_BETA1, rel=1e-13)
    p = cfg.params()
    assert md["t_pole_xi0"] == pytest.approx(t_min_from_rates(p.J, p.gamma),
                                             rel=1e-5)
    assert md["t_pole_xihalf"] < md["t_pole_xi0"]
    # uncorrelated, fully coherent trace tops out at the defect's thermal
    # purity; the correlated family beats it
    assert md["p_max_xi0"] == pytest.approx(md["p_tls_initial"], abs=1e-5)
    assert md["p_max_xihalf"] > md["p_tls_initial"] + 1e-3
    # every trace starts at the thermal-qubit purity plus its own
    # coherence contribution
    a_q = cfg.params().a_q
    for r in tab.rows:
        if r[2] == 0.0:
            want = 0.5 + 2.0 * ((a_q - 0.5) ** 2 + r[1] ** 2)
            assert r[3] == pytest.approx(want, abs=1e-12)


#: largest gap, in purity, between purity-trace's closed form and a
#: node-stepped reduced run of each start alone (measured over the betas
#: below, at this grid and at the default one: at most 6.0e-15 for a
#: purity cell and 3.8e-15 for p_max)
TRACE_ATOL = 1e-14


@pytest.mark.parametrize("beta, kappa", [(0.1, 0.02), (1.0, 0.1),
                                         (3.0, 0.1), (10.0, 0.1)])
def test_purity_trace_matches_one_run_per_start(beta, kappa):
    """Each purity-trace cell and each p_max agree with a reduced run of
    its start alone to TRACE_ATOL; the xi, mu and t columns are the same
    floats."""
    cfg = _cfg(model={"beta": beta, "kappa": kappa}, run={"samples": 41},
               sweep={"mu_count": 4})
    tab = purity_trace(cfg)
    params = cfg.params()
    rows = iter(tab.rows)
    for tag, xi in (("xi0", 0.0), ("xihalf", 0.5 * xi_max(params))):
        t_pole = tab.metadata[f"t_pole_{tag}"]
        cap = mu_max(params, xi)
        top = reduced_trace(params, xi, cap, t_pole, 2)[-1]
        assert abs(tab.metadata[f"p_max_{tag}"] - top) <= TRACE_ATOL
        ts = np.linspace(0.0, 1.15 * t_pole, 41)
        for frac in np.linspace(0.0, 1.0, 4):
            mu = float(frac) * cap
            want = reduced_trace(params, xi, mu, 1.15 * t_pole, 41)
            got = [next(rows) for _ in ts]
            assert [r[:3] for r in got] == [(xi, mu, t) for t in ts.tolist()]
            assert np.abs(np.array([r[3] for r in got]) - want).max() \
                <= TRACE_ATOL


#: traced peak, in MiB, of one stacked reduced run over 500 starts and
#: 6,944 nodes, read at 251 times: the run holds the node nearest each
#: time and the series of one EVAL_CHUNK at a time (measured: 23.6 MiB).
#: Holding every node of every start, as a lazy view of the run did,
#: peaks at 238 MiB
STACK_PEAK_MIB = 32


def test_purity_trace_stack_holds_only_the_nodes_it_reads():
    """A long stacked propagate run over a large coherence grid (the long
    purity-trace's starts, spans and times, on the affine reduced flow)
    keeps its working set far below its node grid's states."""
    params = _cfg(model={"kappa": 0.36205024997541013}).params()
    m, b = z_generator(params, params.J, 0.0)
    runs = []
    for xi in (0.0, 0.5 * xi_max(params)):
        t_pole = t_min_numeric(params, xi, horizon_mult=1000.0).time
        mus = np.linspace(0.0, 1.0, 500) * mu_max(params, xi)
        z0s = x_to_z(build_initial_state(
            params, InitialStateSpec(mus, xi_re=xi)).x)
        times = np.append(np.linspace(0.0, 1.15 * t_pole, 250), t_pole)
        tracemalloc.start()
        try:
            res = affine_run(m, b, (0.0, 1.15 * t_pole), z0s, times)
            runs.append((res, tracemalloc.get_traced_memory()[1] / 2 ** 20))
        finally:
            tracemalloc.stop()
    assert [res.stats.accepted for res, _ in runs] == [6944, 6936]
    for res, peak in runs:
        assert peak < STACK_PEAK_MIB
        assert res.y.shape == (251, 500, 8)


def test_resonant_drivers_neither_propagate_nor_exponentiate(monkeypatch):
    """coherence-map and purity-trace read closed forms: with every
    binding of integrator.propagate and integrator.expm in the package
    made to raise, both still build their tables, while simulate, which
    propagates, fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("a resonant driver propagated")

    targets = {integrator.propagate, integrator.expm}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tlspurify":
            for attr, value in list(vars(module).items()):
                if any(value is target for target in targets):
                    monkeypatch.setattr(module, attr, refuse)
    cfg = _cfg(run={"samples": 11}, sweep={"mu_count": 3})
    assert len(coherence_map(cfg).rows) == 21 * 21
    assert len(purity_trace(cfg).rows) == 2 * 3 * 11
    with pytest.raises(AssertionError):
        simulate_trace(cfg)


def test_purity_trace_cold_bath_top_starts_are_positive():
    """At beta = 10 the top trace of each family starts on the boundary:
    its exact smallest eigenvalue (50 digits) is >= 0 up to BOUNDARY_RTOL
    of a_q b_q.  Bisected against an absolute 1e-10, it was -1.0e-10,
    while the smallest diagonal entry is 4.2e-18."""
    cfg = _cfg(model={"beta": 10.0}, run={"samples": 3},
               sweep={"mu_count": 2})
    params = cfg.params()
    a_q, b_q = params.a_q, params.b_q
    tab = purity_trace(cfg)
    for xi in sorted({r[0] for r in tab.rows}):
        top = max(r[1] for r in tab.rows if r[0] == xi)
        assert top == mu_max(params, xi)
        lam = mp_min_eigenvalue(family_x(params, complex(top), complex(xi)))
        assert lam >= -BOUNDARY_RTOL * a_q * b_q


def test_purity_trace_needs_reachable_pole():
    with pytest.raises(ValueError):
        purity_trace(_cfg(model={"J": 0.02}))   # gamma / J > 4


def test_purity_trace_rows_are_bounded():
    """2 x mu_count x samples rows: each key passes its own bound here,
    but together they are 4 rows past MAX_ROWS, so nothing runs."""
    cfg = _cfg(run={"samples": MAX_ROWS // 4 + 1}, sweep={"mu_count": 2})
    with pytest.raises(ConfigError) as exc:
        purity_trace(cfg)
    assert (exc.value.code, exc.value.parameter) == ("bad-value",
                                                     "sweep.mu_count")


# ====================================================================
# Worker count
# ====================================================================

def test_fan_out_preserves_order():
    """Sweep rows come out in grid order whatever the worker count."""
    def rows(workers: int):
        cfg = _cfg(run={"workers": workers}, sweep={"axes": [
            {"name": "gamma_over_j", "start": 4.4, "stop": 0.0, "count": 7},
            {"name": "j_frac", "start": 0.6, "stop": 1.05, "count": 3},
            {"name": "xi_frac", "start": 1.0, "stop": 0.0, "count": 4}]})
        return list(scan_gamma(cfg).rows), list(region_map(cfg).rows)

    gammas, regions = rows(1)
    assert [r[0] for r in gammas] == np.linspace(4.4, 0.0, 7).tolist()
    assert [(r[0], r[2]) for r in regions] == [
        (jf, xf) for jf in np.linspace(0.6, 1.05, 3).tolist()
        for xf in np.linspace(1.0, 0.0, 4).tolist()]
    assert rows(3) == (gammas, regions)


_SWEEP_UNDER_SIGTERM_HANDLER = """
import os
import signal
from tlspurify.cli import main

def stop(signum, frame):
    raise SystemExit(128 + signum)

signal.signal(signal.SIGTERM, stop)
for _ in range(20):
    assert main(["scan-gamma", "--workers", "2", "--out", os.devnull]) == 0
"""


def test_fan_out_survives_inherited_sigterm_handler():
    """A sweep at --workers 2 in a process whose SIGTERM handler raises
    finishes: there is no worker to shut down."""
    src = str(Path(tlspurify.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _SWEEP_UNDER_SIGTERM_HANDLER],
                            env={**os.environ, "PYTHONPATH": src},
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # and anything it started
        proc.communicate()
        pytest.fail("a sweep hung under an inherited SIGTERM handler")
    assert proc.returncode == 0, err.decode()


def test_fan_out_never_outgrows_cores_or_jobs(monkeypatch, tmp_path,
                                              capsys):
    """Every command runs in the calling process at any worker count:
    with process creation made to raise, each still writes its table at
    --workers 10**9."""
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = tmp_path / "small.yaml"
    cfg.write_text("run:\n  samples: 11\n  horizon: 2.0\n"
                   "sweep:\n  mu_count: 2\n  axes:\n"
                   "    - {name: gamma_over_j, start: 1.0, stop: 4.4, count: 3}\n"
                   "    - {name: beta, start: 0.5, stop: 2.0, count: 3}\n"
                   "    - {name: j_frac, start: 0.6, stop: 1.05, count: 3}\n"
                   "    - {name: xi_frac, start: 0.0, stop: 1.0, count: 3}\n"
                   "    - {name: mu_frac, start: 0.0, stop: 1.0, count: 3}\n")
    for command in ("simulate", "scan-gamma", "scan-beta", "region-map",
                    "coherence-map", "purity-trace", "verify"):
        assert cli_main([command, "--config", str(cfg),
                         "--workers", str(10**9)]) == 0, command
        captured = capsys.readouterr()
        assert captured.out.startswith(f"# {command}\n")
        assert captured.err == ""


def test_workers_do_not_change_bytes():
    def render(workers: int) -> str:
        cfg = _cfg(run={"horizon": 6.0, "workers": workers},
                   sweep={"axes": [{"name": "beta", "start": 0.05,
                                    "stop": 4.0, "count": 8}]})
        tab = scan_beta(cfg)
        buf = io.StringIO()
        with redirect_stdout(buf):
            write_table(tab, cfg)
        return buf.getvalue()

    one = render(1)
    three = render(3)
    assert one == three
    assert one.startswith("# scan-beta\n")


def test_workers_do_not_change_region_map_bytes():
    """The labels do not depend on the worker count."""
    def render(workers: int) -> str:
        cfg = _cfg(run={"workers": workers}, sweep={"axes": [
            {"name": "j_frac", "start": 0.6, "stop": 1.05, "count": 7},
            {"name": "xi_frac", "start": 0.0, "stop": 1.0, "count": 5}]})
        buf = io.StringIO()
        with redirect_stdout(buf):
            write_table(region_map(cfg), cfg)
        return buf.getvalue()

    one = render(1)
    labels = {line.rsplit(",", 1)[-1] for line in one.splitlines()
              if not line.startswith("#")}
    assert {"A", "B", "C"} <= labels
    assert render(2) == one
