"""Coherence purity gain at pole arrival, under the locked control u == 0
(drive phase glued to the coherence azimuth), the time-optimal policy for
steering theta to the north pole.  The pole times come from the
closed-form engine in ``pole``.

  * s2_resonant_solution: the decoupled qubit-coherence block is a damped
    oscillator; its first zero coincides with pole.t_min_from_rates, so an
    extra qubit coherence mu costs nothing at the optimal arrival time.
  * uncorrelated_pole_purity: the qubit purity on pole arrival from the
    uncorrelated thermal start.
  * pole_gains: how much purity the coherence block adds at pole arrival
    when the initial state carries extra coherence, one coherence-map row
    at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .model import InitialStateSpec, ModelParams, build_initial_state
# perfbench imports these engine names from here
from .pole import (initial_spherical, is_divergent,  # noqa: F401
                   stall_cosine, t_min_from_rates, t_min_numeric)
from .reduced import x_to_z, z_purity, z_states_at


def uncorrelated_pole_purity(params: ModelParams) -> float:
    """Qubit purity on pole arrival from the uncorrelated thermal start:
    the qubit inherits the full bath polarization scale eta."""
    eta = params.eta
    return 0.5 + 2.0 * eta * eta


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


# ====================================================================
# Purity gain at pole arrival
# ====================================================================

def pole_gains(params: ModelParams, xi: float, mus, t_pole: float
               ) -> np.ndarray:
    """(delta_p, p_pole, p_s1) at the pole time t_pole of each start
    (mu, xi) of a coherence-map row, one row per mu: the full purity
    p_pole, the purity p_s1 of the S1 block alone, and the relative gain
    delta_p = p_pole / p_s1 - 1 from the coherence block.

    The gain is exactly zero whenever the S2 content is gone at arrival:
    identically for mu = 0, and for xi = 0 because the coherence
    oscillator's first zero coincides with the uncorrelated pole time.
    With correlations the pole comes earlier, the coherence has not died
    yet, and the gain is positive and grows with mu.  The reduced
    resonant run of every start, with the cross coherence laid on the
    in-phase axis (xi real), realizes the u == 0 geometry; it is one
    exponential, applied to the row's stack of starts as one product."""
    starts = build_initial_state(params, InitialStateSpec(mu_q=mus, xi_re=xi))
    zf = z_states_at(params, x_to_z(starts.x), t_pole)
    p_pole = z_purity(zf)
    p_s1 = 0.5 + 2.0 * zf[:, 0] ** 2
    return np.column_stack([p_pole / p_s1 - 1.0, p_pole, p_s1])
