"""Reduced 8-coordinate dynamics and the spherical change of variables."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_density_x, simulate_z, z_to_spherical
from tlspurify.integrator import integrate
from tlspurify.liouville import (FIELD_ABSORB, FIELD_EMIT, FIELD_FRAME,
                                 FIELD_J1, FIELD_J2, qubit_purity,
                                 rwa_generator, simulate, tls_purity)
from tlspurify.model import (InitialStateSpec, ModelParams,
                             build_initial_state, mu_max, xi_max)
from tlspurify.pole import initial_direction, t_min_numeric
from tlspurify.reduced import (_LIFT, _P, _Z_FIELDS, _Z_OFF, make_rhs_rct,
                               make_rhs_s1, make_rhs_z, x_to_z, z_generator,
                               z_purity)

# Frozen by hand from the coordinate layout: each z entry reads specific
# x slots, so a handcrafted x with distinct slot values pins the wiring.
_X_PROBE = np.zeros(16)
_X_PROBE[0] = 0.40    # |00> population
_X_PROBE[1] = 0.30    # |01>
_X_PROBE[2] = 0.20    # |10>
_X_PROBE[3] = 0.10    # |11>
_X_PROBE[4] = 0.011   # Re rho_{01}
_X_PROBE[5] = 0.012   # Im rho_{01}
_X_PROBE[6] = 0.013   # Re rho_{02}
_X_PROBE[7] = 0.014   # Im rho_{02}
_X_PROBE[10] = 0.015  # Re rho_{12}
_X_PROBE[11] = 0.016  # Im rho_{12}
_X_PROBE[12] = 0.017  # Re rho_{13}
_X_PROBE[13] = 0.018  # Im rho_{13}
_X_PROBE[14] = 0.019  # Re rho_{23}
_X_PROBE[15] = 0.021  # Im rho_{23}


def test_x_to_z_layout():
    z = x_to_z(_X_PROBE)
    expected = np.array([
        0.40 + 0.30 - 0.5,            # joint ground-band weight, centred
        0.016,                        # Im rho_{12}
        0.015,                        # Re rho_{12}
        -2 * 0.40 - 0.30 - 0.20,      # population tilt
        0.013 + 0.017,                # Re (rho_{02} + rho_{13})
        0.012 - 0.021,                # Im (rho_{01} - rho_{23})
        0.014 + 0.018,                # Im (rho_{02} + rho_{13})
        0.011 - 0.019,                # Re (rho_{01} - rho_{23})
    ])
    assert np.abs(z - expected).max() < 1e-15


def test_z_map_intertwines_generators(params_bath, rng):
    """x -> z is equivariant: pushing the full generator through the map
    lands on the affine reduced generator, for any coefficients."""
    for j1, j2, al in [(0.1, 0.0, 0.0), (0.03, -0.08, 0.7), (0.0, 0.0, 0.0)]:
        g = rwa_generator(params_bath, j1, j2, al)
        m, b = z_generator(params_bath, j1, j2, al)
        for _ in range(8):
            x = random_density_x(rng)
            # subtract the image of 0 to isolate the linear part of x_to_z
            lhs = x_to_z(g @ x) - x_to_z(np.zeros(16))
            assert np.abs(lhs - (m @ x_to_z(x) + b)).max() < 1e-13


def test_projected_fields_are_exact():
    """Each of liouville's five fields F and its projection [M | b]
    satisfy _P F = M _P + (M z_off + b) tr on every coordinate unit
    vector, with no rounding at all; the lift of (e_k, 1) is a unit-trace
    state that x_to_z maps back to e_k bit for bit."""
    trace_row = np.array([1.0] * 4 + [0.0] * 12)
    fields = [FIELD_EMIT, FIELD_ABSORB, FIELD_J1, FIELD_J2, FIELD_FRAME]
    for field, projected in zip(fields, _Z_FIELDS, strict=True):
        m, b = projected[:, :8], projected[:, 8]
        resid = _P @ field - (m @ _P + np.outer(m @ _Z_OFF + b, trace_row))
        assert np.abs(resid).max() == 0.0
    for e_k in np.eye(8):
        x = _LIFT @ np.append(e_k, 1.0)
        assert x_to_z(x).tobytes() == e_k.tobytes()
        assert x[:4].sum() == 1.0
    assert _LIFT[:4, 8].sum() == 1.0


def test_z_purity_equals_qubit_purity(rng):
    xs = np.array([random_density_x(rng) for _ in range(12)])
    assert np.abs(z_purity(x_to_z(xs)) - qubit_purity(xs)).max() < 1e-13


def test_state_helpers_take_a_stack_as_its_rows(rng):
    """The state helpers give each state of a stack the bits they give
    it alone."""
    xs = np.array([random_density_x(rng) for _ in range(12)])
    xs = xs.reshape(3, 4, 16)
    zs = x_to_z(xs)
    for helper, stack in ((x_to_z, xs), (qubit_purity, xs),
                          (tls_purity, xs), (z_purity, zs)):
        rows = np.array([[helper(s) for s in row] for row in stack])
        assert helper(stack).tobytes() == rows.tobytes()


# ====================================================================
# Reduced flow vs the full 16-coordinate flow
# ====================================================================

def _compare_full_vs_reduced(params, spec, t_end, tol):
    state = build_initial_state(params, spec)
    ts = np.linspace(0.0, t_end, 60)
    full = simulate(params, state, (0.0, t_end), ts)
    red = simulate_z(params, x_to_z(state.x), (0.0, t_end), ts)
    gap = x_to_z(full.y) - red.y
    return float(np.abs(gap).max()) < tol


def test_reduced_tracks_full_with_populated_coherences(params_bath):
    """Both invariant blocks populated: a correlated ground-band coherence
    plus a qubit coherence riding on top."""
    xi = 0.5 * xi_max(params_bath)
    mu = 0.5 * mu_max(params_bath, xi)
    spec = InitialStateSpec(mu_q=mu, nu_q=0.3 * mu, xi_re=xi)
    assert _compare_full_vs_reduced(params_bath, spec,
                                    2.0 * params_bath.t0, 1e-8)


def test_reduced_tracks_full_table_drive(params_bath):
    """A time-varying detuning: delta(t) piecewise linear through (0, 0),
    (0.4 T0, 0.2) and (T0, 0.2), in the literal convention (phase
    delta(t) t, frame term alpha = (t/2) delta'(t)).  The 8-dim affine
    flow tracks the 16-dim one under the same coefficients: one
    Runge-Kutta run of (x, z) together, compared at its steps."""
    p = params_bath
    t0 = p.t0
    knots, deltas = (0.0, 0.4 * t0, t0), (0.0, 0.2, 0.2)

    def coefficients(t):
        phase = float(np.interp(t, knots, deltas)) * t
        alpha = 0.5 * t * (0.2 / (0.4 * t0) if t < 0.4 * t0 else 0.0)
        return p.J * math.cos(phase), p.J * math.sin(phase), alpha

    def z_rhs(t, z):
        m, b = z_generator(p, *coefficients(t))
        return m @ z + b

    def joint_rhs(t, xz):
        x, z = xz[:16], xz[16:]
        return np.concatenate((rwa_generator(p, *coefficients(t)) @ x,
                               z_rhs(t, z)))

    state = build_initial_state(p, InitialStateSpec(xi_re=0.5 * xi_max(p)))
    joint = integrate(joint_rhs, (0.0, t0),
                      np.concatenate((state.x, x_to_z(state.x))),
                      rtol=1e-11, atol=1e-12)
    assert len(joint.t) > 10
    za = x_to_z(joint.y[:, :16])
    assert np.abs(za - joint.y[:, 16:]).max() < 1e-6


# ====================================================================
# Spherical coordinates (the chart of the oracles)
# ====================================================================

def spherical_to_z_s1(r: float, c: float, theta: float,
                      phi: float = 0.0) -> np.ndarray:
    """S1 block (z[0..3]) from the spherical coordinates, the inverse of
    the oracles' z_to_spherical."""
    return np.array([
        c + r * math.sin(theta),
        r * math.cos(theta) * math.sin(phi),
        r * math.cos(theta) * math.cos(phi),
        -2.0 * c - 1.0,
    ])


def test_spherical_round_trip_handcrafted():
    r, c, theta, phi = 0.21, 0.33, 0.4, -1.1
    z4 = spherical_to_z_s1(r, c, theta, phi)
    rr, cc, tt, pp = z_to_spherical(np.concatenate([z4, np.zeros(4)]))
    assert (rr, cc) == pytest.approx((r, c), abs=1e-14)
    assert (tt, pp) == pytest.approx((theta, phi), abs=1e-14)
    # radius identity straight from the definition
    assert rr == pytest.approx(
        math.hypot(z4[0] - cc, math.hypot(z4[1], z4[2])), abs=1e-14)


def test_spherical_pole_guard():
    z4 = spherical_to_z_s1(0.2, 0.3, math.pi / 2 - 1e-9, 0.7)
    *_, phi = z_to_spherical(np.concatenate([z4, np.zeros(4)]))
    assert phi == 0.0


@settings(max_examples=40, deadline=None)
@given(r=st.floats(1e-3, 0.45), c=st.floats(-0.45, 0.45),
       theta=st.floats(-1.5, 1.5), phi=st.floats(-3.1, 3.1))
def test_spherical_round_trip_property(r, c, theta, phi):
    z4 = spherical_to_z_s1(r, c, theta, phi)
    rr, cc, tt, pp = z_to_spherical(np.concatenate([z4, np.zeros(4)]))
    assert rr == pytest.approx(r, abs=1e-12)
    assert cc == pytest.approx(c, abs=1e-12)
    assert tt == pytest.approx(theta, abs=1e-12)
    assert pp == pytest.approx(phi, abs=1e-12)


def test_rct_flow_matches_z_flow(params_bath):
    """Integrate (r, c, theta) directly and compare against the cartesian
    reduced run converted pointwise at its accepted steps — exercises the
    negative initial latitude branch of a correlated start."""
    xi = 0.5 * xi_max(params_bath)
    state = build_initial_state(params_bath, InitialStateSpec(xi_re=xi))
    z0 = x_to_z(state.x)
    r0, c0, th0, _ = z_to_spherical(z0)
    assert th0 < 0.0
    # stay short of the polar crossing: the asin chart in z_to_spherical
    # folds theta back once the flow passes latitude pi/2
    t_end = 0.75 * params_bath.t0
    rres = integrate(make_rhs_rct(params_bath), (0.0, t_end),
                     np.array([r0, c0, th0]), rtol=1e-11, atol=1e-12)
    zres = simulate_z(params_bath, z0, (0.0, t_end), rres.t)

    sph = np.array([z_to_spherical(z)[:3] for z in zres.y])
    assert np.abs(sph - rres.y).max() < 1e-8


@pytest.mark.parametrize("ratio", [1.0, 3.9])
def test_s1_direction_flow_matches_z_flow(ratio):
    """e^{-gamma t/2} q of the direction flow is (z[0] - c, z[1], eta - c)
    of the resonant reduced run from the same correlated start, at every
    accepted step through the pole and past it."""
    p = ModelParams(kappa=0.1).with_gamma_over_j(ratio)
    xi = 0.5 * xi_max(p)
    z0 = x_to_z(build_initial_state(p, InitialStateSpec(xi_re=xi)).x)
    t_end = 1.2 * t_min_numeric(p, xi).time
    qres = integrate(make_rhs_s1(p), (0.0, t_end), initial_direction(p, xi),
                     rtol=1e-10, atol=1e-10)
    zs = simulate_z(p, z0, (0.0, t_end), qres.t).y
    c = -0.5 * (zs[:, 3] + 1.0)
    s = np.column_stack([zs[:, 0] - c, zs[:, 1], p.eta - c])
    qs = qres.y * np.exp(-0.5 * p.gamma * qres.t)[:, None]
    assert (qres.y[:, 1] < 0.0).any()         # past the pole
    assert np.abs(qs - s).max() < 1e-9


def test_exact_simulate_z_matches_rk(params_bath):
    """The affine reduced flow of the resonant run is propagated exactly;
    Runge-Kutta at rtol = atol = 1e-12 lands on it."""
    xi = 0.5 * xi_max(params_bath)
    mu = 0.5 * mu_max(params_bath, xi)
    z0 = x_to_z(build_initial_state(
        params_bath, InitialStateSpec(mu_q=mu, xi_re=xi)).x)
    span = (0.5, 2.0 * params_bath.t0)
    rk = integrate(make_rhs_z(params_bath), span, z0,
                   rtol=1e-12, atol=1e-12)
    exact = simulate_z(params_bath, z0, span, rk.t)
    assert exact.stats.rejected == 0
    assert np.abs(exact.y - rk.y).max() < 1e-11
