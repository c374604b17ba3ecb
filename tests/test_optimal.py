"""Closed-form time-optimal results and the (r, c, theta) engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from tlspurify import pole
from tlspurify.config import RunConfig
from tlspurify.model import ModelParams, build_initial_state, InitialStateSpec, mu_max, xi_max
from tlspurify.optimal import (pole_gains, s2_resonant_solution,
                               uncorrelated_pole_purity)
from tlspurify.pole import (first_events, initial_spherical, is_divergent,
                            j_min, region_labels, stall_cosine,
                            t_min_analytic, t_min_from_rates, t_min_numeric)
from tlspurify.reduced import x_to_z
from tlspurify.scans import region_map, scan_beta, scan_gamma
from tlspurify.sweeps import coherence_map

from oracles import (Threshold, mp_first_event, s1_pole_run, s2_first_zero,
                     simulated_gain, xi_fixed, z_to_spherical)

# Frozen oracle values (quadrature / bisection cross-checks, 17 digits)
T_MIN_RATIO2 = 24.183991523122902       # J = 0.1, gamma = 0.2
ETA_BETA1 = 0.45257412682243336
POLE_PURITY_BETA1 = 0.909646680538176   # 0.5 + 2 eta^2
R0_BETA1 = 0.11075777409621423          # (a_tls - a_q) / 2
C0_BETA1 = 0.34181635272621913          # eta - r0
J_MIN_BETA01 = 0.1679147956755041       # gamma(beta=0.1, kappa=0.1) / 4
XI_FIXED_BETA01 = 0.011978091887540274  # at J = 0.9 j_min, beta = 0.1
XI_MAX_BETA01 = 0.24690493263942287
#: region-map's default grid point j_frac = 1.0133 (index 45 of
#: linspace(0.6, 1.05, 50)) at beta = 0.1: gamma/J = 3.948
J_FOUND = float(np.linspace(0.6, 1.05, 50)[45]) * J_MIN_BETA01


def _quad_pole_time(J: float, gamma: float) -> float:
    """Independent quadrature for the uncorrelated pole time: the polar
    angle climbs from -pi/2 to pi/2 at rate 2J - (gamma/2) cos(theta)."""
    out = quad(lambda th: 1.0 / (2.0 * J - 0.5 * gamma * math.cos(th)),
               -math.pi / 2, math.pi / 2, epsabs=1e-14, epsrel=1e-14,
               full_output=1)
    val, err = out[0], out[1]
    assert err < 1e-10
    return val


# ====================================================================
# Pole time closed form
# ====================================================================

@pytest.mark.parametrize("ratio", [0.5, 1.5, 3.0, 3.9])
def test_t_min_matches_quadrature(ratio):
    J = 0.1
    gamma = ratio * J
    got = t_min_from_rates(J, gamma)
    want = _quad_pole_time(J, gamma)
    assert got == pytest.approx(want, rel=1e-12)


def test_t_min_frozen_values():
    assert t_min_from_rates(0.1, 0.0) == pytest.approx(math.pi / 0.2, rel=1e-15)
    assert t_min_from_rates(0.1, 0.2) == pytest.approx(T_MIN_RATIO2, rel=1e-14)
    # gamma slows the climb, monotonically
    times = [t_min_from_rates(0.1, g) for g in (0.0, 0.1, 0.2, 0.3)]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_t_min_divergent_cases():
    assert t_min_from_rates(0.1, 0.4) == math.inf
    assert t_min_from_rates(0.1, 0.5) == math.inf
    assert t_min_from_rates(0.0, 0.1) == math.inf
    assert t_min_from_rates(-0.1, 0.1) == math.inf


def test_t_min_analytic_from_params():
    p = ModelParams().with_gamma_over_j(2.0)
    assert t_min_analytic(p) == pytest.approx(T_MIN_RATIO2, rel=1e-14)


def test_is_divergent_tolerance_edges():
    J = 0.1
    assert is_divergent(J, 4 * J)
    assert is_divergent(J, 4 * J - 1e-13)     # inside the critical band
    assert not is_divergent(J, 4 * J - 1e-11)
    assert not is_divergent(J, 0.0)
    # the band is relative: at J = 1e-12 it is 4e-24 wide, not 1e-12
    J = 1e-12
    assert is_divergent(J, 4 * J)
    assert is_divergent(J, 4 * J * (1 - 1e-13))
    assert not is_divergent(J, 4 * J * (1 - 1e-11))
    assert not is_divergent(J, 3.0 * J)


@pytest.mark.parametrize("scan, model", [
    (scan_gamma, {}), (scan_beta, {}),
    *((region_map, {"beta": beta}) for beta in (0.1, 0.3, 1.0))],
    ids=["scan_gamma", "scan_beta", "region_map-0.1", "region_map-0.3",
         "region_map-1.0"])
def test_pole_scans_are_scale_invariant(scan, model):
    """t/t0 depends on gamma/J alone: with J and kappa both 1e-11 times
    the default, each scan labels every cell as the default run does,
    and each pole time in units of t0 agrees to 1e-13.  region-map's
    stall guard holds a curvature that scales as gamma^2 to an absolute
    slack, so its labels are compared at three bath temperatures."""
    scaled = RunConfig.from_dict({"model": {**model, "J": 1e-12,
                                            "kappa": 1e-12}})
    for row, small in zip(scan(RunConfig.from_dict({"model": model})).rows,
                          scan(scaled).rows, strict=True):
        for cell, tiny in zip(row[-2:], small[-2:]):
            if isinstance(cell, str):
                assert tiny == cell, (row, small)
            else:
                assert tiny == pytest.approx(cell, rel=1e-13), (row, small)


def test_j_min():
    assert j_min(0.4) == pytest.approx(0.1, rel=1e-15)
    p = ModelParams(beta=0.1, kappa=0.1)
    assert j_min(p.gamma) == pytest.approx(J_MIN_BETA01, rel=1e-13)


# ====================================================================
# Pole purity
# ====================================================================

def test_uncorrelated_pole_purity_frozen():
    p = ModelParams(kappa=0.1)
    assert p.eta == pytest.approx(ETA_BETA1, rel=1e-14)
    assert uncorrelated_pole_purity(p) == pytest.approx(POLE_PURITY_BETA1,
                                                        rel=1e-14)


# ====================================================================
# Decoupled coherence oscillator
# ====================================================================

@pytest.mark.parametrize("ratio", [2.0, 4.0, 5.0])
def test_s2_solution_matches_ivp(ratio):
    p = ModelParams().with_gamma_over_j(ratio)
    mu = 0.3
    t_end = 3.0 * p.t0

    def rhs(t, y):
        return [y[1], -0.5 * p.gamma * y[1] - p.J ** 2 * y[0]]

    ref = solve_ivp(rhs, (0.0, t_end), [mu, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    ts = np.linspace(0.0, t_end, 50)
    got = s2_resonant_solution(p, mu, ts)
    assert np.abs(got - ref.sol(ts)[0]).max() < 1e-9
    # initial value and zero initial rate straight from the closed form
    assert s2_resonant_solution(p, mu, 0.0) == pytest.approx(mu, abs=1e-15)
    h = 1e-7
    rate0 = (s2_resonant_solution(p, mu, h)
             - s2_resonant_solution(p, mu, -h)) / (2 * h)
    assert abs(rate0) < 1e-6


@pytest.mark.parametrize("ratio", [0.5, 2.0, 3.5])
def test_s2_first_zero_equals_pole_time(ratio):
    """The coherence dies exactly on pole arrival: the same combination of
    J and gamma controls both, through different formulas."""
    p = ModelParams().with_gamma_over_j(ratio)
    assert s2_first_zero(p) == pytest.approx(t_min_analytic(p), rel=1e-12)
    # and the closed-form solution really vanishes there
    assert abs(s2_resonant_solution(p, 0.4, s2_first_zero(p))) < 1e-13


def test_s2_first_zero_divergent():
    assert s2_first_zero(ModelParams().with_gamma_over_j(4.0)) == math.inf
    assert s2_first_zero(ModelParams().with_gamma_over_j(5.0)) == math.inf
    assert s2_first_zero(ModelParams(J=0.0)) == math.inf


# ====================================================================
# Initial point, stall condition, regions
# ====================================================================

def test_initial_spherical_uncorrelated():
    p = ModelParams(kappa=0.1)
    r0, c0, th0 = initial_spherical(p)
    assert r0 == pytest.approx(R0_BETA1, rel=1e-14)
    assert c0 == pytest.approx(C0_BETA1, rel=1e-14)
    assert th0 == pytest.approx(-math.pi / 2, abs=1e-15)
    # invariant-ray identity: radius + offset = eta exactly at xi = 0
    assert r0 + c0 == pytest.approx(p.eta, rel=1e-14)


def test_initial_spherical_with_coherence():
    p = ModelParams(kappa=0.1)
    xi = 0.07
    r0, c0, th0 = initial_spherical(p, xi)
    assert r0 == pytest.approx(math.hypot(R0_BETA1, xi), rel=1e-14)
    assert c0 == pytest.approx(C0_BETA1, rel=1e-14)
    assert th0 == pytest.approx(-math.acos(xi / r0), abs=1e-14)
    assert -math.pi / 2 < th0 < 0.0


def test_initial_spherical_consistent_with_state_builder():
    """The analytic initial point equals what the full builder plus the
    coordinate maps produce."""
    p = ModelParams(kappa=0.1)
    xi = 0.5 * xi_max(p)
    state = build_initial_state(p, InitialStateSpec(xi_re=xi))
    r, c, th, _ = z_to_spherical(x_to_z(state.x))
    r0, c0, th0 = initial_spherical(p, xi)
    assert (r, c, th) == pytest.approx((r0, c0, th0), abs=1e-12)


def test_initial_spherical_rejects_negative_xi():
    with pytest.raises(ValueError):
        initial_spherical(ModelParams(), -0.01)


def test_stall_cosine_branches():
    p = ModelParams(J=0.025, kappa=0.1)      # gamma ~ 0.1105, > 4J
    r0, c0, _ = initial_spherical(p)
    # uncorrelated: r0 = eta - c0 so the ratio collapses to 4J/gamma
    assert stall_cosine(p, r0, c0) == pytest.approx(4 * p.J / p.gamma,
                                                    rel=1e-13)
    assert stall_cosine(ModelParams(J=0.1), 0.1, 0.2) == math.inf  # gamma = 0
    assert stall_cosine(p, 0.1, p.eta + 0.01) == math.inf          # c above eta


def test_fixed_point_theta_example():
    """The stall angle, the principal arccos of the stall cosine."""
    p = ModelParams(J=0.025, kappa=0.1).with_gamma(0.2)
    r0, c0, _ = initial_spherical(p)
    # 4J/gamma = 0.5 on the uncorrelated ray: stall angle pi/3
    assert stall_cosine(p, r0, c0) == pytest.approx(0.5, rel=1e-13)
    assert math.acos(stall_cosine(p, r0, c0)) == pytest.approx(math.pi / 3,
                                                               rel=1e-13)


def test_fixed_point_theta_absent():
    """No stall point: the stall cosine lies above 1."""
    p = ModelParams(kappa=0.1)               # gamma ~ 0.11 < 4J = 0.4
    r0, c0, _ = initial_spherical(p)
    assert stall_cosine(p, r0, c0) > 1.0


def test_fixed_point_theta_boundary():
    """Cosine just inside 1 gives a small stall angle; just outside, none.
    The radius is scaled to place the cosine on either side exactly."""
    p = ModelParams(J=0.025, kappa=0.1)
    c = 0.1
    r_unit = p.gamma * (p.eta - c) / (4.0 * p.J)   # cosine == 1 at this r
    inside = stall_cosine(p, (1.0 - 1e-9) * r_unit, c)
    assert 0.0 < inside <= 1.0
    assert 0.0 < math.acos(inside) < 1e-4
    assert stall_cosine(p, (1.0 + 1e-9) * r_unit, c) > 1.0
    assert stall_cosine(p, 2.0 * r_unit, c) > 1.0


def test_xi_fixed_frozen_value():
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    th = xi_fixed(p)
    assert not th.saturated
    assert th.value == pytest.approx(XI_FIXED_BETA01, abs=1e-9)
    # closed form of the same boundary: d sqrt((gamma/4J)^2 - 1)
    d = 0.5 * (p.a_t - p.a_q)
    closed = d * math.sqrt((p.gamma / (4 * p.J)) ** 2 - 1.0)
    assert th.value == pytest.approx(closed, abs=1e-9)


def test_xi_fixed_empty_and_saturated():
    # gamma < 4J: no instant-stall region at all
    assert xi_fixed(ModelParams(kappa=0.1)) == Threshold(0.0, False)
    # J far below j_min: the whole coherence range is blocked
    p = ModelParams(beta=0.1, kappa=0.1, J=0.05 * J_MIN_BETA01)
    th = xi_fixed(p)
    assert th.saturated
    assert th.value == pytest.approx(XI_MAX_BETA01, rel=1e-12)


# ====================================================================
# Numeric pole-time engine
# ====================================================================

@pytest.mark.parametrize("ratio,xi_frac", [(1.0, 0.0), (1.0, 0.5),
                                           (3.0, 0.0), (3.0, 0.5)])
def test_scalar_engine_matches_reference(ratio, xi_frac):
    """The closed-form engine against the S1 direction run on the
    generic integrator: two independent paths to the same event."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
    xi = xi_frac * xi_max(p)
    a = t_min_numeric(p, xi)
    b = s1_pole_run(p, xi)
    assert a.status == b.status == "reached"
    # the shallow pole approach at small gamma/J bounds the integrated
    # event time near 1e-8 relative
    assert a.time == pytest.approx(b.t_stop, rel=1e-7)
    assert a.theta == pytest.approx(math.pi / 2, abs=1e-6)


def test_scalar_engine_matches_reference_trapped():
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    xi = 2.0 * XI_FIXED_BETA01
    a = t_min_numeric(p, xi, horizon_mult=40)
    # the stall is a zero of the integrated theta rate: 1e-10 leaves
    # 8e-11 relative, 1e-12 leaves 4e-13
    b = s1_pole_run(p, xi, horizon_mult=40, rtol=1e-12, atol=1e-12)
    assert a.status == b.status == "trapped"
    assert a.t_stop == pytest.approx(b.t_stop, rel=1e-7)
    assert a.theta == pytest.approx(b.theta, abs=1e-6)


def test_reference_arrives_near_critical():
    """Next to gamma = 4J the radius falls to 1e-13 before the pole; the
    direction flow keeps the event, where an (r, c, theta) run took the
    collapse for a stall at 9.49 t0."""
    p = ModelParams(beta=0.1, kappa=0.1, J=J_FOUND)
    a = t_min_numeric(p, 0.0)
    b = s1_pole_run(p, 0.0)
    assert a.status == b.status == "reached"
    assert a.time == pytest.approx(b.t_stop, rel=1e-7)
    assert b.theta == pytest.approx(math.pi / 2, abs=1e-6)
    assert b.r < 1e-10


def test_t_min_numeric_matches_analytic_uncorrelated():
    for kw, ratio in [
        ({"kappa": 0.1}, 0.5), ({"kappa": 0.1}, 2.0), ({"kappa": 0.1}, 3.5),
        ({"kappa": 0.1}, 3.9),
        ({"beta": 0.1, "kappa": 0.1}, 3.912),
        ({"beta": 0.1, "kappa": 0.1}, 3.948),
    ]:
        p = ModelParams(**kw).with_gamma_over_j(ratio)
        run = t_min_numeric(p, 0.0)
        assert run.status == "reached", (kw, ratio)
        assert run.time == pytest.approx(t_min_analytic(p), rel=1e-12)
        assert run.purity == pytest.approx(uncorrelated_pole_purity(p),
                                           abs=1e-5)


@pytest.mark.parametrize("ratio", [4.0, 4.0 - 1e-9, 4.0 + 1e-9, 0.0])
@pytest.mark.parametrize("xi_frac", [0.0, 1.0])
def test_t_min_numeric_degenerate_bounded(ratio, xi_frac):
    """On and next to gamma = 4J, and without loss, every run ends with a
    defined status in a bounded number of closed-form evaluations."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
    run = t_min_numeric(p, xi_frac * xi_max(p))
    assert run.status in ("reached", "trapped", "horizon")
    assert (run.status == "reached") == math.isfinite(run.time)
    assert 0 < run.stats.n_eval < 1000
    assert run.stats.rejected == 0
    if ratio == 0.0 and xi_frac == 0.0:
        assert run.time == pytest.approx(math.pi / (2.0 * p.J), rel=1e-12)


@pytest.mark.parametrize("j_frac", [0.9, 1.0])     # Omega^2 < 0, == 0
def test_t_min_numeric_past_horizon(j_frac):
    """For gamma >= 4J and no event by the horizon the closed form tells a
    pole that never comes (trapped) from one that comes late (horizon)."""
    hot = ModelParams(beta=0.1, kappa=0.1)
    p = hot.replace(J=j_frac * j_min(hot.gamma))
    assert t_min_numeric(p, 0.0, horizon_mult=5).status == "trapped"
    xi = 5.0 * XI_FIXED_BETA01
    t_pole = t_min_numeric(p, xi).time
    late = t_min_numeric(p, xi, horizon_mult=0.9 * t_pole / p.t0)
    assert late.status == "horizon"
    assert late.t_stop == pytest.approx(0.9 * t_pole, rel=1e-12)


@pytest.mark.parametrize("ratio", [0.0, 2.0, 3.9])
def test_t_min_numeric_long_horizon(ratio):
    """For gamma < 4J the direction is periodic and one period decides
    every event, so a long horizon finds the same first pole crossing
    with the same work: the counters do not grow with the horizon."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
    run = t_min_numeric(p, 0.0, horizon_mult=1200)
    assert run.status == "reached"
    assert run.time == pytest.approx(t_min_analytic(p), rel=1e-12)
    for xi in (0.0, xi_max(p)):
        long = t_min_numeric(p, xi, horizon_mult=1200)
        short = t_min_numeric(p, xi)
        assert long.time == short.time
        assert long.stats.n_eval == short.stats.n_eval
        assert long.stats.accepted == short.stats.accepted


@pytest.mark.parametrize("j_frac", [0.9, 0.999])
@pytest.mark.parametrize("xi_frac", [0.0, 1.0])
def test_t_min_numeric_settled_direction(j_frac, xi_frac):
    """For gamma > 4J the direction settles onto the attracting stall
    angle, where the theta rate is zero up to roundoff: its polynomial
    has no roundoff root there, so a long horizon ends at the horizon,
    not at a roundoff sign change of the rate, in bounded work."""
    hot = ModelParams(beta=0.1, kappa=0.1)
    p = hot.replace(J=j_frac * j_min(hot.gamma))
    run = t_min_numeric(p, xi_frac * XI_FIXED_BETA01, horizon_mult=2000)
    assert run.status == "trapped"
    assert run.t_stop == 2000 * p.t0
    assert run.stats.n_eval < 10_000


@pytest.mark.parametrize("beta", [0.01, 0.1])
def test_overdamped_tail_has_no_roundoff_stall(beta):
    """At gamma/J = 1e6 the direction settles onto the stall angle within
    1e-4 t0, and from there the float theta rate is roundoff of either
    sign.  The rate polynomial has no root there, so the run meets no
    stall and ends at the horizon, as the 50-digit reference has it (a
    grid scan took a roundoff zero of the rate near 5e-5 t0 for a
    stall)."""
    p = ModelParams(beta=beta, kappa=0.1).with_gamma_over_j(1e6)
    assert mp_first_event(p, 0.0) == ("trapped", None)
    run = t_min_numeric(p, 0.0)
    assert run.status == "trapped"
    assert run.t_stop == 20.0 * p.t0


@pytest.mark.parametrize("beta", [0.1, 0.3])
def test_pole_just_above_critical(beta):
    """One part in 1e13 above gamma = 4J the correlated start reaches the
    pole within 1.4 t0 (the 50-digit reference), and the run says so: a
    scan that stopped once the direction had settled gave up at t = 0
    there, and the cell read "horizon" (region U)."""
    p = ModelParams(beta=beta, kappa=0.1).with_gamma_over_j(
        4.0 * (1.0 + 1e-13))
    xi = xi_max(p)
    status, t_ref = mp_first_event(p, xi)
    run = t_min_numeric(p, xi)
    assert status == run.status == "reached"
    assert run.time < 1.4 * p.t0
    assert abs(run.time - float(t_ref)) <= 1e-12 * float(t_ref)
    assert region_labels([p], [xi])[0] == "C"


def test_t_min_numeric_late_pole_below_critical():
    p = ModelParams(beta=0.1, kappa=0.1).with_gamma_over_j(3.948)
    assert t_min_numeric(p, 0.0, horizon_mult=5).status == "horizon"


def test_t_min_numeric_correlated_is_faster():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    t_un = t_min_numeric(p, 0.0).time
    t_co = t_min_numeric(p, xi_max(p)).time
    assert t_co < t_un


def test_t_min_numeric_validation():
    with pytest.raises(ValueError):
        t_min_numeric(ModelParams(J=0.0))


def test_t_min_numeric_zero_radius():
    """A cold bath at xi = 0 starts the S1 block at the centre of the
    sphere (r = 0, c = eta), a rest point: the pole is never reached, and
    theta and its rate read 0."""
    for beta in (100.0, 1000.0):
        p = ModelParams(beta=beta, kappa=0.1)
        r0, c0, _ = initial_spherical(p, 0.0)
        assert (r0, c0) == (0.0, p.eta)
        run = t_min_numeric(p, 0.0)
        assert run.status == "trapped"
        assert run.time == math.inf
        assert run.t_stop == 20.0 * p.t0
        assert (run.r, run.c, run.theta, run.theta_rate) == (0.0, p.eta,
                                                             0.0, 0.0)
        assert region_labels([p], [0.0])[0] == "B"


def test_t_min_numeric_trapped_run():
    """Just under the critical coupling, a small extra coherence puts the
    start in the en-route stall region: the flow pinches onto the
    attracting stall angle and the rate dies."""
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    run = t_min_numeric(p, 2.0 * XI_FIXED_BETA01, horizon_mult=40)
    assert run.status == "trapped"
    assert run.time == math.inf
    assert not run.stall_blocked
    assert abs(run.theta_rate) < 1e-6


def test_t_min_numeric_instant_stall():
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    run = t_min_numeric(p, 0.5 * XI_FIXED_BETA01, horizon_mult=3)
    assert run.stall_blocked
    assert run.time == math.inf
    assert run.status in ("trapped", "horizon")


def test_classify_region_labels():
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    assert region_labels([p], [0.5 * XI_FIXED_BETA01])[0] == "A"
    assert region_labels([p], [2.0 * XI_FIXED_BETA01])[0] == "B"
    assert region_labels([p], [5.0 * XI_FIXED_BETA01])[0] == "C"
    assert region_labels([ModelParams(J=0.1)], [0.0])[0] == "C"   # gamma = 0
    assert region_labels([ModelParams(J=0.0)], [0.0])[0] == "U"


# ====================================================================
# Batched engine
# ====================================================================

_HOT = ModelParams(beta=0.1, kappa=0.1)

#: (params, horizon_mult) of every regime the batch must keep apart:
#: gamma < 4J, gamma = 4J exactly (Omega^2 = 0), gamma > 4J settling onto
#: the stall angle within the horizon, and the beta = 40 rest point
_REGIMES = [
    ModelParams(kappa=0.1).with_gamma_over_j(2.0),
    ModelParams(kappa=0.1).with_gamma_over_j(3.9),
    _HOT.replace(J=_HOT.gamma / 4.0),
    _HOT.replace(J=0.9 * J_MIN_BETA01),
    _HOT.replace(J=0.999 * J_MIN_BETA01),
    ModelParams(beta=40.0, kappa=0.1),
]


def test_regimes_cover_every_branch():
    assert _HOT.replace(J=_HOT.gamma / 4.0).J * 4.0 == _HOT.gamma
    assert initial_spherical(_REGIMES[-1], 0.0)[0] == 0.0
    run = t_min_numeric(_REGIMES[3], 0.0, horizon_mult=2000)
    assert run.status == "trapped" and run.t_stop == 2000 * _REGIMES[3].t0


@settings(max_examples=25, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, len(_REGIMES) - 1),
                                st.sampled_from([0.0, 0.3, 1.0])
                                | st.floats(0.0, 1.0)),
                      min_size=1, max_size=12),
       horizon=st.sampled_from([3.0, 20.0, 300.0]),
       order=st.randoms(use_true_random=False))
def test_first_events_match_batches_of_one(cells, horizon, order):
    """Every cell of a batch, in any order, gets bit for bit the result
    of its own batch of one: time, status, stop point, spherical state,
    stall flag and work counters."""
    order.shuffle(cells)
    params = [_REGIMES[k] for k, _ in cells]
    xis = [f * xi_max(p) for p, (_, f) in zip(params, cells)]
    batch = first_events(params, xis, horizon)
    for p, xi, run in zip(params, xis, batch):
        assert run == t_min_numeric(p, xi, horizon_mult=horizon)
    assert region_labels(params, xis, horizon) == [
        region_labels([p], [xi], horizon)[0]
        for p, xi in zip(params, xis)]


def test_engine_working_set_is_bounded():
    """A 2,500-cell region-map batch keeps a fixed number of floats per
    cell (eight sample times, a 4 x 4 companion matrix, the brackets):
    the traced peak stays under 4 MB (2.40 MB measured, reached while the
    bracket search evaluates the polynomials at the sample times; the
    label path's bisections add under 0.1 MB)."""
    import tracemalloc
    jm = j_min(_HOT.gamma)
    params, xis = [], []
    for jf in np.linspace(0.6, 1.05, 50):
        p = _HOT.replace(J=float(jf) * jm)
        params += [p] * 50
        xis += [float(xf) * XI_MAX_BETA01 for xf in np.linspace(0, 1, 50)]
    tracemalloc.start()
    try:
        labels = region_labels(params, xis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(labels) == 2500
    assert peak < 4e6


def _gate_cells():
    """Random cells at beta in {0.1, 1, 3}, gamma/J uniform on [0, 4.2],
    on [3.9, 4.1] and within 0.1 % of 4, xi uniform up to xi_max, every
    regime of _REGIMES at three coherences, and a pole near 800 t0 just
    below gamma = 4J, where Omega^2 = 4J^2 - gamma^2/4 must be formed
    without cancellation to keep the time within 1e-12."""
    rng = np.random.default_rng(20261018)
    cells = []
    for beta in (0.1, 1.0, 3.0):
        for lo, hi in ((0.0, 4.2), (3.9, 4.1), (3.996, 4.004)):
            for _ in range(8):
                p = ModelParams(beta=beta, kappa=0.1).with_gamma_over_j(
                    float(rng.uniform(lo, hi)))
                cells.append((p, float(rng.uniform(0.0, 1.0)) * xi_max(p)))
    late = ModelParams(kappa=0.1).with_gamma_over_j(3.9999876766609836)
    return cells + [(p, f * xi_max(p)) for p in _REGIMES
                    for f in (0.0, 0.5, 1.0)] + [(late, 0.003483296225332298)]


@pytest.mark.parametrize("horizon", [20.0, 300.0, 1000.0])
def test_first_events_match_mpmath(horizon):
    """Every status matches a 50-digit reference, and every pole or stall
    time agrees with it to 1e-12 relative; a run that meets neither ends
    exactly at the horizon."""
    cells = _gate_cells()
    runs = first_events([p for p, _ in cells], [xi for _, xi in cells],
                        horizon)
    for (p, xi), run in zip(cells, runs):
        status, t_ref = mp_first_event(p, xi, horizon_mult=horizon)
        assert run.status == status, (p, xi)
        if t_ref is None:
            assert run.t_stop == horizon * p.t0
        else:
            assert abs(run.t_stop - float(t_ref)) <= 1e-12 * float(t_ref)


@pytest.mark.parametrize("horizon", [20.0, 300.0, 1000.0])
def test_region_labels_read_the_statuses_of_first_events(horizon):
    """The label path bisects only the brackets that decide a status, yet
    every cell that is not A gets the label of first_events' status."""
    cells = _gate_cells()
    params, xis = [p for p, _ in cells], [xi for _, xi in cells]
    labels = region_labels(params, xis, horizon)
    runs = first_events(params, xis, horizon)
    ran = [k for k, label in enumerate(labels) if label != "A"]
    assert len(ran) > len(cells) // 2
    assert [labels[k] for k in ran] == [
        pole._LABELS[pole._STATUSES.index(runs[k].status)] for k in ran]


def test_stall_guard_drops_a_bracket_with_no_rate_zero(monkeypatch):
    """On the theta rate's zero set the guard's curvature is exactly
    d(rate)/dt / r^2, so a true falling zero always passes it; the guard
    acts only where a sampled sign is wrong.  Roundoff does that in the
    settled tail of a gamma > 4J run, but only within a few ulps of xi,
    too fine to pin.  So the sign is misread on purpose here: the last
    sample before the pole reads the rate as zero, bisection on the true
    (positive) rate ends at that sample, and the guard, finding the rate
    rising there, keeps the run going to the reference's pole.  Counting
    every bracket as a stall would stop it short, "trapped"."""
    p = ModelParams(beta=0.1, kappa=0.1).with_gamma_over_j(2.0)
    xi = xi_max(p)
    status, t_ref = mp_first_event(p, xi)
    assert status == "reached"
    misread = []
    monkeypatch.setattr(pole._DriftFlow, "_signs",
                        _misread_before(float(t_ref), misread))
    run = t_min_numeric(p, xi)
    assert misread and 0.0 < misread[0] < float(t_ref)
    assert run.status == status
    assert abs(run.time - float(t_ref)) <= 1e-12 * float(t_ref)
    # the label path, which refines no pole here, keeps the guard too
    assert region_labels([p], [xi])[0] == "C"
    assert len(misread) == 2


def _misread_before(t_ref, misread):
    """_DriftFlow._signs, except that the last sample before t_ref reads
    the rate as zero where it and the sample before are positive; each
    misread sample's time is appended to misread."""
    signs = pole._DriftFlow._signs

    def misread_before_pole(self, v, rate, t):
        fv, fr = signs(self, v, rate, t)
        k = np.flatnonzero(t[0] < t_ref)[-1]
        if fr[0, k - 1] > 0.0 and fr[0, k] > 0.0:
            misread.append(t[0, k])
            fr = fr.copy()
            fr[0, k] = 0.0
        return fv, fr
    return misread_before_pole


def test_stall_guard_drops_a_graze_at_small_rates(monkeypatch):
    """The guard's slack STALL_CURVATURE_TOL is absolute, and the
    curvature it reads scales as gamma^2.  Run the start above at rates
    1e-3 of it (J = 1e-4): the sampled theta rate touches zero at the
    misread sample and rises again, a graze, and the guard reads a
    curvature of 5.0e-9 there, inside (1e-12, 1e-6].  The graze is no
    stall: the run reaches the reference's pole, and the label is C.  A
    slack of 1e-6 would count it and stop the run short, "trapped"."""
    p = ModelParams(beta=0.1, J=1e-4).with_gamma_over_j(2.0)
    xi = xi_max(p)
    status, t_ref = mp_first_event(p, xi)
    assert status == "reached"
    curvature = pole._stall_curvature
    misread, read = [], []

    def reading(*args):
        c = curvature(*args)
        read.extend(np.ravel(c).tolist())
        return c

    monkeypatch.setattr(pole._DriftFlow, "_signs",
                        _misread_before(float(t_ref), misread))
    monkeypatch.setattr(pole, "_stall_curvature", reading)
    run = t_min_numeric(p, xi)
    assert run.status == status
    assert abs(run.time - float(t_ref)) <= 1e-12 * float(t_ref)
    assert region_labels([p], [xi])[0] == "C"
    assert len(misread) == len(read) == 2
    assert all(1e-12 < c <= 1e-6 for c in read), read


def test_stall_curvature_at_zero_radius():
    """At zero radius (where theta reads 0) the guard's curvature is
    finite under the raising errstate of cli.main: r * r is floored at
    the smallest normal float, so nothing underflows or divides by zero.
    Where r * r is a normal float the floor changes no bit."""
    gamma, eta, c = 0.2, 0.45, 0.3
    d = eta - c
    with np.errstate(all="raise"):
        for th in (0.0, 0.3):
            assert np.isfinite(pole._stall_curvature(gamma, eta, 0.0, c, th))
        r = 1e-150
        assert pole._stall_curvature(gamma, eta, r, c, 0.3) == (
            0.25 * gamma * gamma * np.cos(0.3) * np.sin(0.3)
            * (r * r - d * d) / (r * r))


def test_label_path_refines_the_pole_of_a_shared_piece(monkeypatch):
    """A stall bracket in the pole's own piece may end after the pole, so
    the label path refines that pole too.  Misread the rate as zero at
    the end of the pole piece: bisection on the true (positive) rate ends
    there, after the pole, and the run still reaches it.  Taking the
    stall without the pole time would label the cell B."""
    p = ModelParams(beta=0.1, kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.5 * xi_max(p)
    status, t_ref = mp_first_event(p, xi)
    assert status == "reached"
    signs = pole._DriftFlow._signs
    misread = []

    def misread_at_pole_piece_end(self, v, rate, t):
        fv, fr = signs(self, v, rate, t)
        k = np.flatnonzero(t[0] >= float(t_ref))[0]
        if fr[0, k - 1] > 0.0 and fr[0, k] > 0.0:
            misread.append(t[0, k])
            fr = fr.copy()
            fr[0, k] = 0.0
        return fv, fr

    monkeypatch.setattr(pole._DriftFlow, "_signs", misread_at_pole_piece_end)
    run = t_min_numeric(p, xi)
    assert run.status == status
    assert abs(run.time - float(t_ref)) <= 1e-12 * float(t_ref)
    assert region_labels([p], [xi])[0] == "C"
    assert len(misread) == 2 and misread[0] > float(t_ref)


def test_first_events_empty_and_validation():
    assert first_events([], []) == []
    assert region_labels([], []) == []
    with pytest.raises(ValueError):
        first_events([ModelParams(kappa=0.1), ModelParams(J=0.0)], [0.0, 0.0])


# ====================================================================
# Relative purity gain from the coherence block
# ====================================================================

def test_delta_p_zero_cases():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.3 * xi_max(p)
    t_pole = t_min_numeric(p, xi).time
    gain, p_pole, p_s1 = pole_gains(p, xi, [0.0], t_pole)[0]
    assert gain == 0.0
    assert p_pole == p_s1
    # xi = 0: the oscillator's first zero lands exactly on the pole time
    t_pole = t_min_numeric(p, 0.0).time
    mu = 0.5 * mu_max(p, 0.0)
    gain0 = pole_gains(p, 0.0, [mu], t_pole)[0, 0]
    assert abs(gain0) < 1e-6
    assert abs(simulated_gain(p, 0.0, mu, t_pole)) < 1e-6


def test_delta_p_grows_with_mu():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.5 * xi_max(p)
    cap = mu_max(p, xi)
    t_pole = t_min_numeric(p, xi).time
    mus = [f * cap for f in (0.25, 0.5, 0.9)]
    vals = pole_gains(p, xi, mus, t_pole)[:, 0]
    assert all(v > 0.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]
    for mu, v in zip(mus, vals):
        assert abs(v - simulated_gain(p, xi, mu, t_pole)) < 1e-13


def test_pole_gains_row():
    """One exponential per coherence-map row: its cells are the gains of
    node-stepped reduced runs to the pole time, and each gain is the
    ratio of the row's two purities."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.5 * xi_max(p)
    t_pole = t_min_numeric(p, xi).time
    mus = [f * mu_max(p, xi) for f in (0.0, 0.3, 0.9)]
    row = pole_gains(p, xi, mus, t_pole)
    assert row.shape == (3, 3)
    for mu, (gain, p_pole, p_s1) in zip(mus, row):
        assert abs(simulated_gain(p, xi, mu, t_pole) - gain) < 1e-13
        assert gain == p_pole / p_s1 - 1.0
    assert pole_gains(p, xi, [], t_pole).shape == (0, 3)


def test_delta_p_unreached_pole():
    """A coherence-map row whose pole is not reached by the horizon
    carries "divergent" in every physical cell, not a gain."""
    cfg = RunConfig.from_dict({
        "model": {"J": ModelParams(kappa=0.1).gamma / 4.5, "kappa": 0.1},
        "run": {"horizon": 2.0},
        "sweep": {"axes": [
            {"name": "xi_frac", "start": 0.0, "stop": 0.1, "count": 2},
            {"name": "mu_frac", "start": 0.0, "stop": 0.5, "count": 3}]}})
    table = coherence_map(cfg)
    for xi in {row[1] for row in table.rows}:
        run = t_min_numeric(cfg.params(), xi, horizon_mult=2.0)
        assert run.status != "reached"
    assert [row[4] for row in table.rows] == ["divergent"] * 6
