"""Time-optimal purification results that need the integrator stack.

Everything here runs the locked control u == 0 (drive phase glued to the
coherence azimuth), which is the time-optimal policy for steering theta to
the north pole: theta advances at the full rate 2J on top of the drift.
The pole times and stall labels come from the closed-form engine in
``pole``; this module re-exports its names, so ``optimal.t_min_numeric``
and friends keep working.

Closed forms:
  * s2_resonant_solution: the decoupled qubit-coherence block is a damped
    oscillator; its first zero coincides with t_min_analytic, so an extra
    qubit coherence mu costs nothing at the optimal arrival time.
  * fixed_point_theta, xi_fixed: the stall angle and the cross-coherence
    boundary of region A.

Numerics:
  * pole_gains and delta_p quantify how much purity the coherence block
    adds at pole arrival when the initial state carries extra coherence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import (InitialStateSpec, ModelParams, build_initial_state,
                    xi_max)
# the engine's public names are re-exported from here
from .pole import (CRITICAL_TOL, STALL_CURVATURE_TOL, TminResult,  # noqa: F401
                   classify_region, classify_regime, first_events,
                   initial_direction, initial_spherical, is_divergent,
                   j_min, region_labels, stall_cosine, t_min_analytic,
                   t_min_from_rates, t_min_numeric)
from .reduced import (simulate_z, x_to_z, z_purity, z_purity_many,
                      z_states_at)

HALF_PI = 0.5 * math.pi


def uncorrelated_pole_purity(params: ModelParams) -> float:
    """Qubit purity on pole arrival from the uncorrelated thermal start:
    the qubit inherits the full bath polarization scale eta."""
    eta = params.eta
    return 0.5 + 2.0 * eta * eta


def pole_purity_ceiling(params: ModelParams, xi: float = 0.0) -> float:
    """Largest S1 purity any drive can produce from the thermal-product
    start with cross coherence xi: the radius plus offset bound
    1/2 + 2 (r0 + c0)^2, met exactly when the state is steered straight
    to the pole with nothing lost.  At xi = 0 this is the eta ceiling."""
    r0, c0, _ = initial_spherical(params, xi)
    return 0.5 + 2.0 * (r0 + c0) ** 2


# ====================================================================
# Decoupled coherence block (resonant drive)
# ====================================================================

def s2_resonant_solution(params: ModelParams, mu: float, t) -> np.ndarray:
    """Qubit coherence z[4](t) under the resonant drive, initial value mu
    with zero initial rate.  (The other quadrature z[6] obeys the same
    damped oscillator; pass its initial value for mu.)

    z'' + (gamma/2) z' + J^2 z = 0, branches by the sign of J^2 - gamma^2/16.
    """
    t = np.asarray(t, dtype=float)
    gam = params.gamma
    J = params.J
    q = 0.25 * gam                      # decay rate of the envelope
    disc = J * J - q * q
    env = np.exp(-q * t)
    if J > 0.0 and abs(disc) <= 1e-12 * J * J:
        return mu * env * (1.0 + q * t)
    if disc > 0.0:
        w = math.sqrt(disc)
        return mu * env * (np.cos(w * t) + (q / w) * np.sin(w * t))
    w = math.sqrt(-disc)
    return mu * env * (np.cosh(w * t) + (q / w) * np.sinh(w * t))


def s2_first_zero(params: ModelParams) -> float:
    """First zero of the resonant coherence block; infinite in the
    overdamped and critical regimes.  Coincides with t_min_analytic."""
    gam = params.gamma
    J = params.J
    q = 0.25 * gam
    disc = J * J - q * q
    if J <= 0.0 or disc <= 1e-12 * J * J:
        return math.inf
    w = math.sqrt(disc)
    return (HALF_PI + math.atan(q / w)) / w


# ====================================================================
# Stall point and region-A boundary
# ====================================================================

def fixed_point_theta(params: ModelParams, r: float, c: float) -> float | None:
    """Principal stall angle arccos of the stall cosine at the given
    (r, c), or None when no stall point exists there.  The polar rate
    vanishes at both signs of this angle: the flow repels from +theta_f
    and attracts onto -theta_f, so any state below +theta_f when the pair
    exists is cut off from the pole."""
    arg = stall_cosine(params, r, c)
    if not 0.0 < arg <= 1.0:
        return None
    return math.acos(arg)


class Threshold(NamedTuple):
    """A located boundary value; saturated means none exists below the
    physical ceiling and the ceiling itself is returned."""

    value: float
    saturated: bool


def xi_fixed(params: ModelParams) -> Threshold:
    """Cross-coherence boundary of the instant-stall (region A) condition,
    located by bisection on stall_cosine(t=0) = 1 over xi in [0, xi_max].

    Below the returned value the stall condition holds from the start.
    Returns 0 (not saturated) when region A is empty (gamma < 4J) and the
    ceiling with saturated=True when A covers the whole range.
    """
    ceiling = xi_max(params)

    def blocked(xi: float) -> bool:
        r0, c0, _ = initial_spherical(params, xi)
        return stall_cosine(params, r0, c0) <= 1.0

    if not blocked(0.0):
        return Threshold(0.0, False)
    if blocked(ceiling):
        return Threshold(ceiling, True)
    lo, hi = 0.0, ceiling
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if blocked(mid):
            lo = mid
        else:
            hi = mid
    return Threshold(0.5 * (lo + hi), False)


# ====================================================================
# Purity overshoot at pole arrival
# ====================================================================

class DeltaPResult(NamedTuple):
    delta_p: float              # P(t_pole)/P_S1(t_pole) - 1; NaN if pole missed
    t_pole: float
    p_pole: float               # full purity at the pole event
    p_s1_pole: float            # purity from the S1 block alone at the event
    p_max: float                # largest purity anywhere on [0, t_pole]
    t_max: float                # where that largest value sits
    status: str                 # status of the underlying pole-time run


def pole_gains(params: ModelParams, xi: float, mus, t_pole: float
               ) -> np.ndarray:
    """(delta_p, p_pole, p_s1) at the pole time t_pole of each start
    (mu, xi) of a coherence-map row, one row per mu.  The reduced resonant
    run of every start is one exponential, applied as one product."""
    z0s = [x_to_z(build_initial_state(
        params, InitialStateSpec(mu_q=mu, xi_re=xi)).x) for mu in mus]
    zf = z_states_at(params, z0s, t_pole)
    p_pole = z_purity_many(zf)
    p_s1 = 0.5 + 2.0 * zf[:, 0] ** 2
    return np.column_stack([p_pole / p_s1 - 1.0, p_pole, p_s1])


def delta_p(params: ModelParams, xi: float, mu: float, *,
            horizon_mult: float = 20.0, n_samples: int = 2001,
            t_pole: float | None = None) -> DeltaPResult:
    """Relative purity gained from the coherence block at pole arrival:
    P(t_pole) / P_S1(t_pole) - 1.

    Exactly zero whenever the S2 content is gone at arrival - identically
    for mu = 0, and for xi = 0 because the coherence oscillator's first
    zero coincides with the uncorrelated pole time.  With correlations the
    pole comes earlier, the coherence has not died yet, and the gain is
    positive and grows with mu.

    The pole time comes from t_min_numeric; the purity at the pole comes
    from pole_gains, the row routine of coherence-map: the reduced
    8-coordinate run under the resonant drive with the cross coherence
    laid on the in-phase axis (xi real), which realizes the same u == 0
    geometry.  The overall maximum over [0, t_pole] (initial transient
    included) is reported alongside as p_max, from n_samples samples of
    the same run refined by a parabolic fit through the best one.
    """
    if t_pole is None:
        lead = t_min_numeric(params, xi, horizon_mult=horizon_mult)
        if lead.status != "reached":
            return DeltaPResult(math.nan, math.inf, math.nan, math.nan,
                                math.nan, math.nan, lead.status)
        t_pole = lead.time
    gain, p_pole, p_s1 = pole_gains(params, xi, [mu], t_pole)[0].tolist()
    state = build_initial_state(params, InitialStateSpec(mu_q=mu, xi_re=xi))
    res = simulate_z(params, x_to_z(state.x), (0.0, t_pole))
    traj = res.trajectory
    ts = np.linspace(0.0, t_pole, n_samples)
    ps = z_purity_many(traj(ts))
    k = int(np.argmax(ps))
    t_max, p_max = float(ts[k]), float(ps[k])
    if 0 < k < n_samples - 1:
        # parabola through the three best samples
        tm, t0_, tp = ts[k - 1], ts[k], ts[k + 1]
        pm, p0_, pp = ps[k - 1], ps[k], ps[k + 1]
        denom = (pm - 2.0 * p0_ + pp)
        if denom < 0.0:
            t_v = t0_ + 0.5 * (tm - t0_) * (pm - pp) / denom
            t_v = min(max(t_v, tm), tp)
            p_v = float(z_purity(traj(float(t_v))))
            if p_v > p_max:
                t_max, p_max = float(t_v), p_v
    return DeltaPResult(gain, t_pole, p_pole, p_s1, p_max, t_max, "reached")
