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

Qubit purity = 1/2 + 2 (z[0]^2 + z[4]^2 + z[6]^2).  x_to_z and z_purity
take one state or a stack of them, on the last axis, as model.x_to_matrix
does.  The first four coordinates (block S1) and last four (block S2)
evolve independently of each other.  The reduced flow is liouville's,
projected through x_to_z and a lift of z to a unit-trace state; no entry
of it is typed by hand.  Only verify runs it, resonant: z_states_at
exactly, make_rhs_z for the Runge-Kutta side.  The commands read the
resonant runs off their closed forms in pole.

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

from .integrator import augment, expm
from .liouville import (FIELD_ABSORB, FIELD_EMIT, FIELD_FRAME, FIELD_J1,
                        FIELD_J2, weigh_fields)
from .model import ModelParams


# ====================================================================
# x -> z projection and purity
# ====================================================================

def x_to_z(x: np.ndarray) -> np.ndarray:
    """The eight reduced coordinates of a state, or of each state of a
    stack (the 16 coordinates on the last axis)."""
    x = np.asarray(x, dtype=float)
    return np.stack([
        x[..., 0] + x[..., 1] - 0.5,
        x[..., 11],
        x[..., 10],
        -2.0 * x[..., 0] - x[..., 1] - x[..., 2],
        x[..., 6] + x[..., 12],
        x[..., 5] - x[..., 15],
        x[..., 7] + x[..., 13],
        x[..., 4] - x[..., 14],
    ], axis=-1)


def z_purity(z: np.ndarray) -> np.ndarray:
    """Qubit purity of one reduced state, or of each state of a stack."""
    return 0.5 + 2.0 * (z[..., 0] ** 2 + z[..., 4] ** 2 + z[..., 6] ** 2)


# ====================================================================
# The reduced flow, projected from the full one:  dz/dt = M z + b
# ====================================================================

#: x_to_z(x) = _P x + _Z_OFF, read off x_to_z itself
_Z_OFF = x_to_z(np.zeros(16))
_P = (x_to_z(np.eye(16)) - _Z_OFF).T

#: maps (z, 1) to a unit-trace x with x_to_z(x) == z: x[0] = 0, the
#: populations from z[0], z[3] and the trace, and every other z slot in
#: the one x slot that x_to_z reads it from
_LIFT = np.zeros((16, 9))
_LIFT[1, [0, 8]] = 1.0, 0.5                  # x[1] = z[0] + 1/2
_LIFT[2, [0, 3, 8]] = -1.0, -1.0, -0.5       # x[2] = -z[0] - z[3] - 1/2
_LIFT[3, [3, 8]] = 1.0, 1.0                  # x[3] = z[3] + 1
_LIFT[[11, 10, 6, 5, 7, 4], [1, 2, 4, 5, 6, 7]] = 1.0


#: [M | b] of each of liouville's five fields: the flow closes on z, so
#: _P F applied to the lift of (z, 1) is M z + b
_Z_FIELDS = _P @ np.array([FIELD_EMIT, FIELD_ABSORB, FIELD_J1, FIELD_J2,
                           FIELD_FRAME]) @ _LIFT


def z_generator(params: ModelParams, j1: float, j2: float,
                alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) of the affine reduced flow at fixed coefficients: the
    projected fields, weighted as rwa_generator weights the full ones."""
    g = weigh_fields(_Z_FIELDS, params, j1, j2, alpha)
    return g[:, :8], g[:, 8]


def make_rhs_z(params: ModelParams):
    """Right-hand side of the resonant reduced flow."""
    m, b = z_generator(params, params.J, 0.0)

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        return m @ z + b

    return rhs


def z_states_at(params: ModelParams, z0s, t: float) -> np.ndarray:
    """z(t) of the resonant reduced run from each row of z0s: one
    exponential of the augmented generator [[M, b], [0, 0]] over [0, t],
    applied to every start as one product: verify's independent side of
    pole.resonant_purity and pole.coherence_gains."""
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
    eta, J = params.eta, params.J
    half = 0.5 * params.gamma

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
    b = 0.5 * params.gamma
    a = 2.0 * params.J

    def rhs(t: float, q: np.ndarray) -> np.ndarray:
        w, v, d = q
        return np.array([a * v - b * d, -a * w, -b * w])

    return rhs
