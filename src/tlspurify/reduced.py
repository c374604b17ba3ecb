"""Closed 8-coordinate reduction of the flow, and its spherical picture.

The qubit purity only involves eight linear combinations of the sixteen
coordinates, and the flow closes on them (0-based slots, with x also
0-based as in model.py):

    z[0] = x[0] + x[1] - 1/2          qubit polarization
    z[1] = x[11]                      Re xi  (cross coherence)
    z[2] = x[10]                      -Im xi
    z[3] = -2 x[0] - x[1] - x[2]      population bookkeeping
    z[4] = x[6] + x[12]               Re qubit coherence
    z[5] = x[5] - x[15]
    z[6] = x[7] + x[13]               Im qubit coherence
    z[7] = x[4] - x[14]

Qubit purity = 1/2 + 2 (z[0]^2 + z[4]^2 + z[6]^2).  The first four
coordinates (block S1) and last four (block S2) evolve independently of
each other.  The package runs the reduced flow only resonant
(simulate_z exactly, make_rhs_z for the checks' Runge-Kutta side);
z_generator keeps the general coefficients (J1, J2, alpha) of the full
generator, the reduction that the tests hold it to.

The spherical picture sits on S1: with  c = -(z[3]+1)/2  and

    z[0] - c = r sin(theta),   z[1] = r cos(theta) sin(phi),
    z[2] = r cos(theta) cos(phi),

the dynamics read (u = drive phase minus azimuth phi, the phase being
the running integral of the detuning)

    dr/dt     = -(gamma/2) (r + (eta - c) sin(theta))
    dc/dt     =  (gamma/2) (r sin(theta) + (eta - c))
    dtheta/dt = -(gamma/2) ((eta - c)/r) cos(theta) + 2 J cos(u)
    dphi/dt   = -J tan(theta) sin(u)

with theta in [-pi/2, pi/2] (cos(theta) >= 0 by construction); at the
poles the azimuth degenerates.
Purity grows with z[0]^2 alone in S1, so driving theta to +pi/2 (all of r
into the polarization, "north pole") is the purification target.

The (eta - c)/r term is singular at r = 0, so the locked control u == 0
(the pole engine's flow, and the checks' Runge-Kutta side of it) runs on
the direction q = e^{gamma t/2} (r sin(theta), r cos(theta), eta - c),
whose flow is linear and regular (a = 2 J cos(u) = 2 J):

    q' = N(a) q,  N(a) = [[0, a, -gamma/2], [-a, 0, 0], [-gamma/2, 0, 0]],
    theta = atan2(q_w, q_v),  r = e^{-gamma t/2} |(q_w, q_v)|,
    c = eta - e^{-gamma t/2} q_d.
"""

from __future__ import annotations

import math

import numpy as np

from .integrator import IvpResult, augment, expm, propagate
from .model import ModelParams


# ====================================================================
# x -> z projection and purity
# ====================================================================

def x_to_z(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([
        x[0] + x[1] - 0.5,
        x[11],
        x[10],
        -2.0 * x[0] - x[1] - x[2],
        x[6] + x[12],
        x[5] - x[15],
        x[7] + x[13],
        x[4] - x[14],
    ])


def z_purity_many(z: np.ndarray) -> np.ndarray:
    """Purity along a trajectory, z shaped (n, 8)."""
    return 0.5 + 2.0 * (z[:, 0] ** 2 + z[:, 4] ** 2 + z[:, 6] ** 2)


# ====================================================================
# Static fields of the reduced flow:  dz/dt = M z + b
# ====================================================================

def _mat8(entries: dict[tuple[int, int], float]) -> np.ndarray:
    m = np.zeros((8, 8))
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


#: shared linear part of both dissipator halves
_Z_DISS = _mat8({
    (1, 1): -0.5, (2, 2): -0.5,
    (3, 0): -1.0, (3, 3): -1.0,
    (5, 5): -0.5, (7, 7): -0.5,
})
_Z_DISS_B1 = np.array([0.0, 0.0, 0.0, -1.5, 0.0, 0.0, 0.0, 0.0])  # emission
_Z_DISS_B2 = np.array([0.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0])  # absorption

_Z_J1 = _mat8({
    (0, 1): 2.0,
    (1, 0): -2.0, (1, 3): -1.0,
    (4, 5): 1.0, (5, 4): -1.0,
    (6, 7): -1.0, (7, 6): 1.0,
})
_Z_J1_B = np.array([0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

_Z_J2 = _mat8({
    (0, 2): 2.0,
    (2, 0): -2.0, (2, 3): -1.0,
    (4, 7): -1.0, (5, 6): 1.0,
    (6, 5): -1.0, (7, 4): 1.0,
})
_Z_J2_B = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

_Z_FRAME = _mat8({
    (1, 2): -2.0, (2, 1): 2.0,
    (4, 6): 2.0, (6, 4): -2.0,
})


def z_generator(params: ModelParams, j1: float, j2: float,
                alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) of the affine reduced flow at fixed coefficients."""
    r = params.rates
    m = (r.gamma * _Z_DISS + j1 * _Z_J1 + j2 * _Z_J2 + alpha * _Z_FRAME)
    b = (r.gamma1 * _Z_DISS_B1 + r.gamma2 * _Z_DISS_B2
         + j1 * _Z_J1_B + j2 * _Z_J2_B)
    return m, b


def make_rhs_z(params: ModelParams):
    """Right-hand side of the resonant reduced flow."""
    m, b = z_generator(params, params.J, 0.0)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        return m @ z + b

    return rhs


def simulate_z(params: ModelParams, z0: np.ndarray,
               t_span: tuple[float, float]) -> IvpResult:
    """Evolve the reduced coordinates of the resonant run over t_span
    exactly: the affine flow on the augmented 9x9 generator."""
    m, b = z_generator(params, params.J, 0.0)
    return propagate(m, t_span, z0, b=b)


def z_states_at(params: ModelParams, z0s, t: float) -> np.ndarray:
    """z(t) of the resonant reduced run from each row of z0s: one
    exponential of the augmented generator [[M, b], [0, 0]] over [0, t],
    applied to every start as one product."""
    step = expm(augment(*z_generator(params, params.J, 0.0)) * t)
    return np.reshape(z0s, (-1, 8)) @ step[:8, :8].T + step[:8, 8]


# ====================================================================
# Spherical picture on S1
# ====================================================================

def make_rhs_rct(params: ModelParams):
    """(r, c, theta) dynamics under u == 0, singular at r = 0 through its
    (eta - c)/r term.  No package path calls it: the checks integrate the
    regular make_rhs_s1.  It stays as a reference form of the spherical
    equations for the tests and for perfbench's RHS probe."""
    gam = params.rates.gamma
    eta = params.rates.eta
    J = params.J
    half = 0.5 * gam

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r, c, th = y
        s, co = math.sin(th), math.cos(th)
        d = eta - c
        rr = r if r > 1e-300 else 1e-300
        return np.array([
            -half * (r + d * s),
            half * (r * s + d),
            -half * (d / rr) * co + 2.0 * J,
        ])

    return rhs


def make_rhs_s1(params: ModelParams):
    """Right-hand side q' = N(2J) q of the S1 direction
    q = e^{gamma t/2} (r sin theta, r cos theta, eta - c) under u == 0."""
    b = 0.5 * params.rates.gamma
    a = 2.0 * params.J

    def rhs(t: float, q: np.ndarray) -> np.ndarray:
        w, v, d = q
        return np.array([a * v - b * d, -a * w, -b * w])

    return rhs
