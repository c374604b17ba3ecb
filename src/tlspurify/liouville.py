"""Full 16-coordinate dynamics of the qubit + defect density matrix.

In the rotating frame the flow splits into four static fields,

    dx/dt = gamma1*A x + gamma2*B x + J1(t)*C x + J2(t)*D x,

with J1 = J cos(delta t), J2 = J sin(delta t) for the drive's constant
detuning delta (see drive.py).  A and B are the emission/absorption halves
of the defect dissipator, C and D the two quadratures of the exchange
coupling.  E, a qubit z-rotation, is the frame term of a time-varying
detuning; it generates the frame that co-rotates with a constant one.
The lab frame skips the rotating-frame reduction entirely and evolves the
density matrix under the bare Hamiltonian with the same dissipator; it
serves as an end-to-end check of the rotating-frame approximation.

Every drive gives constant coefficients in both frames, so simulate
propagates it exactly (integrator.propagate); a detuning delta becomes
constant in the frame that co-rotates at delta about K = FIELD_FRAME/2,
because e^{phi K} C e^{-phi K} = cos(phi) C + sin(phi) D and K commutes
with A and B.  The right-hand sides make_rhs_rwa and make_rhs_lab are the
same flows for the Runge-Kutta integrator, the independent side of the
checks.
"""

from __future__ import annotations

import numpy as np

from .drive import ConstantDrive, resonant
from .integrator import IvpResult, propagate
from .model import DensityState, ModelParams, matrix_to_x, x_to_matrix

# ====================================================================
# Static fields of the rotating-frame flow (0-based coordinate slots)
# ====================================================================

def _mat(entries: dict[tuple[int, int], float]) -> np.ndarray:
    m = np.zeros((16, 16))
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


#: emission half of the dissipator (rate gamma1)
FIELD_EMIT = _mat({
    (0, 1): 1.0, (1, 1): -1.0, (2, 3): 1.0, (3, 3): -1.0,
    (4, 4): -0.5, (5, 5): -0.5,
    (6, 12): 1.0, (7, 13): 1.0,
    (8, 8): -0.5, (9, 9): -0.5, (10, 10): -0.5, (11, 11): -0.5,
    (12, 12): -1.0, (13, 13): -1.0,
    (14, 14): -0.5, (15, 15): -0.5,
})

#: absorption half of the dissipator (rate gamma2)
FIELD_ABSORB = _mat({
    (0, 0): -1.0, (1, 0): 1.0, (2, 2): -1.0, (3, 2): 1.0,
    (4, 4): -0.5, (5, 5): -0.5,
    (6, 6): -1.0, (7, 7): -1.0,
    (8, 8): -0.5, (9, 9): -0.5, (10, 10): -0.5, (11, 11): -0.5,
    (12, 6): 1.0, (13, 7): 1.0,
    (14, 14): -0.5, (15, 15): -0.5,
})

#: in-phase coupling quadrature (coefficient J1)
FIELD_J1 = _mat({
    (1, 11): 2.0, (2, 11): -2.0,
    (4, 7): 1.0, (5, 6): -1.0, (6, 5): 1.0, (7, 4): -1.0,
    (11, 2): 1.0, (11, 1): -1.0,
    (12, 15): -1.0, (13, 14): 1.0, (14, 13): -1.0, (15, 12): 1.0,
})

#: out-of-phase coupling quadrature (coefficient J2)
FIELD_J2 = _mat({
    (1, 10): 2.0, (2, 10): -2.0,
    (4, 6): 1.0, (5, 7): 1.0, (6, 4): -1.0, (7, 5): -1.0,
    (10, 2): 1.0, (10, 1): -1.0,
    (12, 14): 1.0, (13, 15): 1.0, (14, 12): -1.0, (15, 13): -1.0,
})

#: frame term (qubit z-rotation, coefficient alpha)
FIELD_FRAME = _mat({
    (6, 7): 2.0, (7, 6): -2.0,
    (8, 9): 2.0, (9, 8): -2.0,
    (10, 11): 2.0, (11, 10): -2.0,
    (12, 13): 2.0, (13, 12): -2.0,
})

#: generator of the frame that co-rotates with a constant detuning
FRAME_ROTATION = 0.5 * FIELD_FRAME


def rwa_generator(params: ModelParams, j1: float, j2: float,
                  alpha: float = 0.0) -> np.ndarray:
    """Assembled 16x16 generator at fixed coefficient values."""
    r = params.rates
    return (r.gamma1 * FIELD_EMIT + r.gamma2 * FIELD_ABSORB
            + j1 * FIELD_J1 + j2 * FIELD_J2 + alpha * FIELD_FRAME)


def make_rhs_rwa(params: ModelParams, drive: ConstantDrive):
    """Right-hand side of the rotating-frame flow for the given drive."""
    r = params.rates
    m_diss = r.gamma1 * FIELD_EMIT + r.gamma2 * FIELD_ABSORB
    J = params.J

    if drive.detuning == 0.0:
        m_const = m_diss + J * FIELD_J1

        def rhs_const(t: float, x: np.ndarray) -> np.ndarray:
            return m_const @ x

        return rhs_const

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        ph = drive.phase(t)
        m = (m_diss + (J * np.cos(ph)) * FIELD_J1
             + (J * np.sin(ph)) * FIELD_J2)
        return m @ x

    return rhs


# ====================================================================
# Lab frame (no rotating-frame reduction)
# ====================================================================

_SZ = np.diag([1.0, -1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]])   # lowers |1> to |0> (emission)

_SZ_Q = np.kron(_SZ, np.eye(2))
_SZ_T = np.kron(np.eye(2), _SZ)
_SXSX = np.kron(_SX, _SX)
_SM_T = np.kron(np.eye(2), _SMINUS)
_SP_T = _SM_T.T


def lab_hamiltonian(params: ModelParams, epsilon: float) -> np.ndarray:
    """Bare two-body Hamiltonian with the control shift applied."""
    return (-0.5 * (params.omega_q + epsilon) * _SZ_Q
            - 0.5 * params.omega_tls * _SZ_T
            - params.J * _SXSX)


def lab_liouvillian(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(L0, L_eps) of the lab-frame master equation on the 16 real
    coordinates: dx/dt = (L0 + epsilon L_eps) x.  Column k is the
    matrix-level equation (commutator with the bare Hamiltonian plus the
    defect dissipator) applied to basis vector k.  No secular or
    rotating-frame approximation; jump operators act on the defect only."""
    r = params.rates
    basis = np.array([x_to_matrix(e) for e in np.eye(16)])

    def commutator(h):
        return -1j * (h @ basis - basis @ h)

    def dissipator(op):
        n = op.T @ op
        return op @ basis @ op.T - 0.5 * (n @ basis + basis @ n)

    l0 = (commutator(lab_hamiltonian(params, 0.0))
          + r.gamma1 * dissipator(_SM_T) + r.gamma2 * dissipator(_SP_T))
    l_eps = commutator(-0.5 * _SZ_Q)
    return (np.array([matrix_to_x(m) for m in l0]).T,
            np.array([matrix_to_x(m) for m in l_eps]).T)


def make_rhs_lab(params: ModelParams, drive: ConstantDrive):
    """Right-hand side of the lab-frame flow for the given drive."""
    l0, l_eps = lab_liouvillian(params)
    a = l0 + drive.epsilon(params) * l_eps

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        return a @ x

    return rhs


# ====================================================================
# Observables on the 16 coordinates
# ====================================================================

def qubit_reduced(x: np.ndarray) -> np.ndarray:
    """2x2 state of the qubit after tracing out the defect."""
    p0 = x[0] + x[1]
    p1 = x[2] + x[3]
    c = complex(x[6] + x[12], x[7] + x[13])
    return np.array([[p0, c], [np.conj(c), p1]])


def tls_reduced(x: np.ndarray) -> np.ndarray:
    """2x2 state of the defect after tracing out the qubit."""
    p0 = x[0] + x[2]
    p1 = x[1] + x[3]
    c = complex(x[4] + x[14], x[5] + x[15])
    return np.array([[p0, c], [np.conj(c), p1]])


def qubit_purity(x: np.ndarray) -> float:
    p0 = x[0] + x[1]
    p1 = x[2] + x[3]
    return float(p0 * p0 + p1 * p1
                 + 2.0 * ((x[6] + x[12]) ** 2 + (x[7] + x[13]) ** 2))


def tls_purity(x: np.ndarray) -> float:
    p0 = x[0] + x[2]
    p1 = x[1] + x[3]
    return float(p0 * p0 + p1 * p1
                 + 2.0 * ((x[4] + x[14]) ** 2 + (x[5] + x[15]) ** 2))


# ====================================================================
# Driver
# ====================================================================

def simulate(
    params: ModelParams,
    state: DensityState,
    t_span: tuple[float, float],
    drive: ConstantDrive | None = None,
    *,
    frame: str = "rwa",
) -> IvpResult:
    """Evolve a density state over t_span in the chosen frame, exactly:
    the lab generator at the drive's shift, or the rotating-frame one in
    the frame that co-rotates with its detuning."""
    if drive is None:
        drive = resonant()
    if frame == "lab":
        l0, l_eps = lab_liouvillian(params)
        a, rotation = l0 + drive.epsilon(params) * l_eps, None
    elif frame == "rwa":
        delta = drive.detuning
        a = rwa_generator(params, params.J, 0.0) - delta * FRAME_ROTATION
        rotation = (FRAME_ROTATION, delta)
    else:
        raise ValueError(f"frame must be 'rwa' or 'lab', got {frame!r}")
    return propagate(a, t_span, state.x, rotation=rotation)
