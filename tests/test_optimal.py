"""Closed-form time-optimal results and the (r, c, theta) engine."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from mpmath import mp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from tlspurify import pole
from tlspurify.config import RunConfig
from tlspurify.model import ModelParams, build_initial_state, InitialStateSpec, mu_max, xi_max
from tlspurify.pole import (coherence_gains, first_events, initial_spherical,
                            is_divergent, j_min, region_labels,
                            resonant_purity, s2_resonant_solution,
                            stall_cosine, t_min_from_rates, t_min_numeric,
                            uncorrelated_pole_purity)
from tlspurify.reduced import x_to_z
from tlspurify.scans import region_map, scan_beta, scan_gamma
from tlspurify.sweeps import coherence_map

from oracles import (Threshold, mp_first_event, mp_reduced_state,
                     s1_pole_run, s2_first_zero, simulated_gain, xi_fixed,
                     z_to_spherical)

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


def test_t_min_from_rates_of_params():
    p = ModelParams().with_gamma_over_j(2.0)
    assert t_min_from_rates(p.J, p.gamma) == pytest.approx(T_MIN_RATIO2,
                                                         rel=1e-14)


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
    assert s2_first_zero(p) == pytest.approx(t_min_from_rates(p.J, p.gamma),
                                             rel=1e-12)
    # and the closed-form solution really vanishes there
    assert abs(s2_resonant_solution(p, 0.4, s2_first_zero(p))) < 1e-13


@pytest.mark.parametrize("ratio", [4.5, 10.0, 100.0])
def test_s2_overdamped_matches_mpmath(ratio):
    """The overdamped branch (gamma > 4J) up to 1000 t0, where cosh and
    sinh formed apart overflow: no warning, and within 4 ulps of the
    40-digit solution per unit of q t (the exponent's own rounding), or
    an underflow below 1e-300."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
    ts = np.linspace(0.0, 1000.0, 2001) * p.t0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = s2_resonant_solution(p, 1.0, ts)
    q = 0.25 * p.gamma
    with mp.workdps(40):
        J, qm = mp.mpf(p.J), mp.mpf(q)
        w = mp.sqrt((qm - J) * (qm + J))
        for t, g in zip(ts.tolist(), got.tolist()):
            ref = mp.exp(-qm * t) * (mp.cosh(w * t) + qm / w * mp.sinh(w * t))
            bound = 4.0 * np.finfo(float).eps * (1.0 + q * t)
            assert abs(g - ref) <= bound * ref + 1e-300, t / p.t0


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


@settings(max_examples=60, deadline=None)
# a subnormal xi: the lead coefficient of v is -xi, and its root overflows
@example(log_beta=0.0, xi_frac=2.225073858507e-311, log_j=0.0)
@given(log_beta=st.floats(math.log(1e-8), math.log(36.0)),
       xi_frac=st.floats(0.0, 1.0),
       log_j=st.floats(math.log(1e-3), math.log(10.0)))
def test_lossless_pole_time_to_a_few_ulps(log_beta, xi_frac, log_j):
    """At kappa = 0 the direction turns at the rate 2J from the angle
    -atan2(pol_gap, xi), so the pole comes at
    (pi/2 + atan2(pol_gap, xi))/(2J).  The engine starts at exactly
    s0 = (-pol_gap, xi, pol_gap), takes no angle, and its pole time is
    within 4 ulps of that time at 40 digits (3.4 ulps the largest seen in
    58,000 random draws over these ranges).  A start through
    theta0 = -arccos(xi / r0) was 2.9e7 ulps off at a hot bath, where
    xi / r0 rounds toward 1.  initial_spherical reads r0 and c0 off the
    same start, bit for bit as stall_cosine's callers form them.  The run
    raises on overflow, division by zero and invalid values, as the CLI
    does."""
    p = ModelParams(beta=math.exp(log_beta), kappa=0.0, J=math.exp(log_j))
    xi = xi_frac * xi_max(p)
    w, v, d = pole.initial_direction(p.pol_gap, xi)
    assert (w, v, d) == (-p.pol_gap, xi, p.pol_gap)
    r0, c0, _ = initial_spherical(p, xi)
    assert (r0, c0) == (np.hypot(p.pol_gap, xi), p.eta - p.pol_gap)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        run = t_min_numeric(p, xi)
    assert run.status == "reached"
    with mp.workdps(40):
        t_ref = (mp.pi / 2 + mp.atan2(p.pol_gap, xi)) / (2 * mp.mpf(p.J))
        assert abs(mp.mpf(run.time) - t_ref) <= 4 * math.ulp(float(t_ref))


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
        assert run.time == pytest.approx(t_min_from_rates(p.J, p.gamma),
                                         rel=1e-12)
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
    assert run.time == pytest.approx(t_min_from_rates(p.J, p.gamma), rel=1e-12)
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
    theta reads 0."""
    for beta in (100.0, 1000.0):
        p = ModelParams(beta=beta, kappa=0.1)
        r0, c0, _ = initial_spherical(p, 0.0)
        assert (r0, c0) == (0.0, p.eta)
        run = t_min_numeric(p, 0.0)
        assert run.status == "trapped"
        assert run.time == math.inf
        assert run.t_stop == 20.0 * p.t0
        assert (run.r, run.c, run.theta) == (0.0, p.eta, 0.0)
        assert region_labels([p], [0.0])[0] == "B"


def test_t_min_numeric_trapped_run():
    """Just under the critical coupling, a small extra coherence puts the
    start in the en-route stall region: the flow pinches onto the
    attracting stall angle and the rate dies there, so the run stops
    where cos(theta) is the stall cosine of its (r, c).  The stall
    condition did not hold at the start: the label is B, not A."""
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    xi = 2.0 * XI_FIXED_BETA01
    run = t_min_numeric(p, xi, horizon_mult=40)
    assert run.status == "trapped"
    assert run.time == math.inf
    assert math.cos(run.theta) == pytest.approx(stall_cosine(p, run.r, run.c),
                                                rel=1e-12)
    assert region_labels([p], [xi]) == ["B"]


def test_t_min_numeric_instant_stall():
    """A start where the stall condition already holds (region A) never
    reaches the pole."""
    p = ModelParams(beta=0.1, kappa=0.1, J=0.9 * J_MIN_BETA01)
    xi = 0.5 * XI_FIXED_BETA01
    run = t_min_numeric(p, xi, horizon_mult=3)
    assert region_labels([p], [xi]) == ["A"]
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


#: a parameter object of a grid row: a regime of _REGIMES, or a bath
#: with gamma/J anywhere from no loss to past the critical line
_ROW_PARAMS = st.one_of(
    st.sampled_from(_REGIMES),
    st.builds(lambda beta, ratio: ModelParams(beta=beta, kappa=0.1)
              .with_gamma_over_j(ratio),
              st.sampled_from([0.1, 1.0, 3.0]), st.floats(0.0, 6.0)))


@settings(max_examples=40, deadline=None)
@given(params=st.lists(_ROW_PARAMS, min_size=1, max_size=5),
       width=st.integers(1, 5), data=st.data(),
       horizon=st.sampled_from([3.0, 20.0, 300.0]),
       block=st.integers(1, 7))
def test_grid_calls_match_batches_of_one(params, width, data, horizon,
                                         block):
    """first_events and region_labels on a grid, one parameter object per
    row and a row of xi values for each, give every cell, in row-major
    order, bit for bit the result of its own batch of one.  region_labels
    walks the grid in blocks of a few cells, so block edges fall inside
    rows and between them."""
    fracs = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
    xis = np.array([[data.draw(fracs) * xi_max(p) for _ in range(width)]
                    for p in params])
    cells = [(p, xi) for p, row in zip(params, xis.tolist()) for xi in row]
    saved = pole.REGION_BLOCK
    pole.REGION_BLOCK = block
    try:
        labels = region_labels(params, xis, horizon)
    finally:
        pole.REGION_BLOCK = saved
    assert labels == [region_labels([p], [xi], horizon)[0]
                      for p, xi in cells]
    assert first_events(params, xis, horizon) == [
        t_min_numeric(p, xi, horizon_mult=horizon) for p, xi in cells]


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


def test_region_labels_walk_the_grid_in_blocks():
    """A 200 x 200 grid (40,000 cells, three blocks of REGION_BLOCK) traces
    under 24 MB (15.0 MB measured), where one batch of the whole grid,
    at about 0.9 KB per cell, would trace about 36 MB."""
    import tracemalloc
    jm = j_min(_HOT.gamma)
    params = [_HOT.replace(J=float(jf) * jm)
              for jf in np.linspace(0.6, 1.05, 200)]
    xis = np.broadcast_to(np.linspace(0, 1, 200) * XI_MAX_BETA01, (200, 200))
    assert xis.size > 2 * pole.REGION_BLOCK
    tracemalloc.start()
    try:
        labels = region_labels(params, xis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(labels) == 40_000
    assert peak < 24e6


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


def _misread_before(t_ref, misread, at=None):
    """_DriftFlow._signs, except that the last sample before t_ref reads
    the rate as zero where it and the sample before are positive; each
    misread sample's time is appended to misread.  Given a time at, that
    sample is first moved there, in the array the brackets are then read
    from."""
    signs = pole._DriftFlow._signs

    def misread_before_pole(self, v, rate, t):
        k = np.flatnonzero(t[0] < t_ref)[-1]
        if at is not None:
            t[0, k] = at
        fv, fr = signs(self, v, rate, t)
        if fr[0, k - 1] > 0.0 and fr[0, k] > 0.0:
            misread.append(t[0, k])
            fr = fr.copy()
            fr[0, k] = 0.0
        return fv, fr
    return misread_before_pole


def test_stall_guard_drops_a_graze_at_small_rates(monkeypatch):
    """The curvature the guard reads scales as gamma^2, and so does its
    slack, STALL_CURVATURE_TOL gamma^2.  Run the start above at rates
    1e-3 down to 1e-11 of it, with the misread sample moved to 1e-8
    (relative) short of the reference's pole: the sampled theta rate
    touches zero there and rises again, a graze, and the guard reads a
    curvature of 3.6e-9 gamma^2, inside (1e-12, 1e-6] gamma^2.  The graze
    is no stall: at every scale the run reaches the reference's pole, and
    the label is C.  An absolute slack of 1e-12 would count it at these
    rates (at J = 1e-6 the curvature is 1.4e-20), and a slack of
    1e-6 gamma^2 at any rates; either stops the run short, "trapped"."""
    curvature = pole._stall_curvature
    read = []

    def reading(*args):
        c = curvature(*args)
        read.extend(np.ravel(c).tolist())
        return c

    monkeypatch.setattr(pole, "_stall_curvature", reading)
    for J in (1e-4, 1e-6, 1e-7, 1e-12):
        p = ModelParams(beta=0.1, J=J).with_gamma_over_j(2.0)
        xi = xi_max(p)
        status, t_ref = mp_first_event(p, xi)
        assert status == "reached"
        t_ref = float(t_ref)
        misread = []
        del read[:]
        with monkeypatch.context() as m:
            m.setattr(pole._DriftFlow, "_signs", _misread_before(
                t_ref, misread, at=t_ref * (1.0 - 1e-8)))
            run = t_min_numeric(p, xi)
            assert region_labels([p], [xi])[0] == "C", J
        assert run.status == status, J
        assert abs(run.time - t_ref) <= 1e-12 * t_ref, J
        assert len(misread) == len(read) == 2, J
        assert all(1e-12 < c / p.gamma ** 2 <= 1e-6 for c in read), (J, read)


def test_stall_curvature_at_zero_radius():
    """At zero radius (w = v = 0, where theta reads 0) the guard's
    curvature is finite under a raising errstate, whatever d is:
    w^2 + v^2 is floored at the smallest normal float and w v is divided
    first, so nothing divides by zero or overflows.  Where w^2 + v^2 is a
    normal float the floor changes no bit."""
    gamma = 0.2
    with np.errstate(all="raise"):
        for d in (0.0, 0.15, 1e10):
            for w, v in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
                assert np.isfinite(pole._stall_curvature(gamma, w, v, d))
        for r in (1e-150, 1.0, 1e150):
            w, v, d = r * math.sin(0.3), r * math.cos(0.3), 0.15
            r2 = w * w + v * v
            assert r2 >= sys.float_info.min
            assert pole._stall_curvature(gamma, w, v, d) == (
                0.25 * gamma * gamma * (w * v / r2 * (r2 - d * d) / r2))


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
    assert region_labels([ModelParams()] * 2, np.zeros((2, 0))) == []
    with pytest.raises(ValueError):
        first_events([ModelParams(kappa=0.1), ModelParams(J=0.0)], [0.0, 0.0])
    # xis gives one row to each parameter object, no more and no fewer
    for xis in ([0.0] * 3, np.zeros((3, 2)), np.zeros((2, 2, 1))):
        for call in (first_events, region_labels):
            with pytest.raises(ValueError):
                call([ModelParams(kappa=0.1)] * 2, xis)


# ====================================================================
# Relative purity gain from the coherence block
# ====================================================================

def test_delta_p_zero_cases():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.3 * xi_max(p)
    t_pole = t_min_numeric(p, xi).time
    assert coherence_gains(p, [xi], [t_pole], [0.0])[0, 0] == 0.0
    # xi = 0: the oscillator's first zero lands exactly on the pole time
    t_pole = t_min_numeric(p, 0.0).time
    mu = 0.5 * mu_max(p, 0.0)
    gain0 = coherence_gains(p, [0.0], [t_pole], [mu])[0, 0]
    assert abs(gain0) < 1e-6
    assert abs(simulated_gain(p, 0.0, mu, t_pole)) < 1e-6


def test_delta_p_grows_with_mu():
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xi = 0.5 * xi_max(p)
    cap = mu_max(p, xi)
    t_pole = t_min_numeric(p, xi).time
    mus = [f * cap for f in (0.25, 0.5, 0.9)]
    vals = coherence_gains(p, [xi], [t_pole], mus)[0]
    assert all(v > 0.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]
    for mu, v in zip(mus, vals):
        assert abs(v - simulated_gain(p, xi, mu, t_pole)) < 1e-13


def test_pole_gains_row():
    """One outer product for a whole map: row k holds the gains of start
    k at its own time, and each is the gain of a node-stepped reduced run
    to that time.  An empty side gives an empty product."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(2.0)
    xis = [0.25 * xi_max(p), 0.5 * xi_max(p)]
    t_poles = [t_min_numeric(p, xi).time for xi in xis]
    mus = [f * mu_max(p, xis[1]) for f in (0.0, 0.3, 0.9)]
    grid = coherence_gains(p, xis, t_poles, mus)
    assert grid.shape == (2, 3)
    for xi, t_pole, row in zip(xis, t_poles, grid):
        for mu, gain in zip(mus, row):
            assert abs(simulated_gain(p, xi, mu, t_pole) - gain) < 1e-13
    assert coherence_gains(p, xis, t_poles, []).shape == (2, 0)
    assert coherence_gains(p, [], [], mus).shape == (0, 3)


#: largest gap, in purity, between resonant_purity and the reduced flow's
#: exponential at 40 digits from the same float start (measured: at most
#: 5.8e-16 over 1,000 draws, a quarter of them within 1e-3 of gamma = 4J)
PURITY_ATOL = 2e-15

#: the gain reads the coherence z[4] = mu g(t) of the damped oscillator,
#: g = e^{-qt} (cos(wt) + (q/w) sin(wt)) with q = gamma/4.  Each of its
#: terms is at most e^{-qt} (1 + qt), and e^{-qt} carries the rounding of
#: qt, a relative qt ulps, so g is good to a few ulps of
#: e^{-qt} (1 + qt)^2 (measured: at most 0.46 of the bound below over
#: 600 draws).  Near the oscillator's first zero that is all of g, so the
#: gain of such a start is good to this absolute bound, not relatively
COHERENCE_ULPS = 4.0

#: amplitudes and gains below this lose digits to underflow
UNDERFLOW = 1e-290


@settings(max_examples=30, deadline=None)
# gamma/J = 3.99: the exponential read exactly 0 for this gain
@example(beta=1.0, kappa=0.1, ratio=3.99, xi_frac=0.05, mu_frac=0.5,
         t_frac=0.5)
@given(beta=st.floats(0.01, 30.0), kappa=st.floats(0.001, 3.0),
       ratio=st.one_of(st.floats(0.01, 3.999),
                       st.floats(3.999, 4.0, exclude_max=True)),
       xi_frac=st.floats(0.0, 1.0), mu_frac=st.floats(0.0, 1.0),
       t_frac=st.floats(0.0, 1.15))
def test_resonant_closed_forms_match_mpmath(beta, kappa, ratio, xi_frac,
                                            mu_frac, t_frac):
    """resonant_purity at a fraction of the pole time, and the gain at the
    pole, against the reduced flow's exponential at 40 digits from the
    same float start: the purity to PURITY_ATOL, the coherence amplitude
    to COHERENCE_ULPS of its terms, and so the gain to 1e-13 relative
    plus what that amplitude bound allows."""
    p = ModelParams(beta=beta, kappa=kappa)
    p = p.replace(J=p.gamma / ratio)
    xi = xi_frac * xi_max(p)
    mu = mu_frac * mu_max(p, xi)
    lead = first_events([p], [xi], 100.0)[0]
    assume(lead.status == "reached")
    t = t_frac * lead.time
    z = mp_reduced_state(p, mu, xi, t)
    with mp.workdps(40):
        want = 0.5 + 2 * (z[0] ** 2 + z[4] ** 2 + z[6] ** 2)
    assert abs(resonant_purity(p, xi, [mu], [t])[0, 0] - want) <= PURITY_ATOL

    z = mp_reduced_state(p, mu, xi, lead.time)
    q = 0.25 * p.gamma
    with mp.workdps(40):
        amp = (COHERENCE_ULPS * 2.0 ** -53 * mu * (1 + q * lead.time) ** 2
               * mp.exp(-q * mp.mpf(lead.time)))
        p_s1 = 0.5 + 2 * z[0] ** 2
        want = 2 * (z[4] ** 2 + z[6] ** 2) / p_s1
        slack = (1e-13 * want + 2 * (2 * abs(z[4]) * amp + amp ** 2) / p_s1
                 + UNDERFLOW)
    assert (abs(mu * s2_resonant_solution(p, 1.0, lead.time) - z[4])
            <= amp + UNDERFLOW)
    gain = coherence_gains(p, [xi], [lead.time], [mu])[0, 0]
    assert abs(gain - want) <= slack


def test_resonant_purity_without_coupling():
    """At J = 0 the qubit is decoupled and its purity stays at its start,
    the reduced flow's value at 40 digits: the closed forms read the drift
    flow, which needs no pole time, so they take J = 0 where first_events
    refuses it."""
    p = ModelParams(J=0.0, kappa=0.1)
    xi, mu = 0.5 * xi_max(p), 0.5 * mu_max(p, 0.0)
    ps = resonant_purity(p, xi, [mu], [0.0, 1.0, 50.0])[:, 0]
    z = mp_reduced_state(p, mu, xi, 0.0)
    with mp.workdps(40):
        want = float(0.5 + 2 * (z[0] ** 2 + z[4] ** 2 + z[6] ** 2))
    assert ps == pytest.approx([want] * 3, abs=PURITY_ATOL)
    with pytest.raises(ValueError):
        first_events([p], [xi])


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
