"""Full 16-coordinate dynamics of the qubit + defect density matrix.

In the rotating frame the flow splits into four static fields,

    dx/dt = gamma1*A x + gamma2*B x + J1(t)*C x + J2(t)*D x,

with J1 = J cos(delta t), J2 = J sin(delta t) for the drive's constant
detuning delta (see drive.py).  A and B are the emission/absorption halves
of the defect dissipator, C and D the two quadratures of the exchange
coupling.  E, a qubit z-rotation, is the frame term of a time-varying
detuning; it generates the frame that co-rotates with a constant one.
Each field is derived from its operator, as the matrix-level equation
applied to the 16 coordinate unit vectors: A and B are the dissipators of
the defect's sigma- and sigma+, C, D and E the commutators -i[H, .] of
H = -(XX + YY)/2, (XY - YX)/2 and the qubit's Z.
The lab frame skips the rotating-frame reduction entirely and evolves the
density matrix under the bare Hamiltonian with the same dissipators, built
by the same helpers; it serves as an end-to-end check of the
rotating-frame approximation.

Every drive gives constant coefficients in both frames, so simulate
propagates it exactly (integrator.propagate); a detuning delta becomes
constant in the frame that co-rotates at delta about K = FIELD_FRAME/2,
because e^{phi K} C e^{-phi K} = cos(phi) C + sin(phi) D and K commutes
with A and B.  The right-hand sides make_rhs_rwa and make_rhs_lab are the
same flows for the Runge-Kutta integrator, the independent side of the
checks.  The observables qubit_purity and tls_purity take one state or a
stack of them, on the last axis, as model.x_to_matrix does.
"""

from __future__ import annotations

import numpy as np

from .drive import ConstantDrive, resonant
from .integrator import IvpResult, propagate
from .model import DensityState, ModelParams, matrix_to_x, x_to_matrix

# ====================================================================
# Superoperators on the 16 coordinates
# ====================================================================

_SZ = np.diag([1.0, -1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]])   # lowers |1> to |0> (emission)

_SZ_Q = np.kron(_SZ, np.eye(2))
_SZ_T = np.kron(np.eye(2), _SZ)
_SXSX = np.kron(_SX, _SX)
_SM_T = np.kron(np.eye(2), _SMINUS)
_SP_T = _SM_T.T

#: the 16 coordinate unit vectors as 4x4 matrices
_BASIS = x_to_matrix(np.eye(16))


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i[h, .] applied to each basis matrix, for h or a stack of them."""
    h = h[..., None, :, :]
    return -1j * (h @ _BASIS - _BASIS @ h)


def _dissipator(op: np.ndarray) -> np.ndarray:
    """The Lindblad dissipator of the real jump operator op applied to
    each basis matrix."""
    n = op.T @ op
    return op @ _BASIS @ op.T - 0.5 * (n @ _BASIS + _BASIS @ n)


# ====================================================================
# Static fields of the rotating-frame flow
# ====================================================================

_DISS_EMIT = _dissipator(_SM_T)
_DISS_ABSORB = _dissipator(_SP_T)
#: the commutators of -(XX + YY)/2, (XY - YX)/2 and the qubit's Z
_COMMUTATORS = _commutator(np.array([
    -0.5 * (_SXSX + np.kron(_SY, _SY)),
    0.5 * (np.kron(_SX, _SY) - np.kron(_SY, _SX)),
    _SZ_Q]))

#: column k of each field is the image of basis matrix k, under: the
#: emission (rate gamma1) and absorption (rate gamma2) halves of the
#: dissipator; the in-phase (coefficient J1) and out-of-phase (J2)
#: coupling quadratures; the frame term, a qubit z-rotation (alpha).
#: Stored C-contiguous: a matrix-vector product sums in storage order
FIELD_EMIT, FIELD_ABSORB, FIELD_J1, FIELD_J2, FIELD_FRAME = (
    np.ascontiguousarray(matrix_to_x(np.array(
        [_DISS_EMIT, _DISS_ABSORB, *_COMMUTATORS])).swapaxes(-1, -2)))

#: generator of the frame that co-rotates with a constant detuning
FRAME_ROTATION = 0.5 * FIELD_FRAME


def weigh_fields(fields, params: ModelParams, j1: float, j2: float,
                 alpha: float = 0.0) -> np.ndarray:
    """Sum of the five fields, or of their images under a linear map,
    weighted by gamma1, gamma2, j1, j2 and alpha, left to right."""
    emit, absorb, f_j1, f_j2, frame = fields
    return (params.gamma1 * emit + params.gamma2 * absorb
            + j1 * f_j1 + j2 * f_j2 + alpha * frame)


def rwa_generator(params: ModelParams, j1: float, j2: float,
                  alpha: float = 0.0) -> np.ndarray:
    """Assembled 16x16 generator at fixed coefficient values."""
    return weigh_fields((FIELD_EMIT, FIELD_ABSORB, FIELD_J1, FIELD_J2,
                         FIELD_FRAME), params, j1, j2, alpha)


def make_rhs_rwa(params: ModelParams, drive: ConstantDrive):
    """Right-hand side of the rotating-frame flow for the given drive."""
    J, delta = params.J, drive.detuning

    if delta == 0.0:
        m_const = rwa_generator(params, J, 0.0)

        def rhs_const(t: float, x: np.ndarray) -> np.ndarray:
            return m_const @ x

        return rhs_const

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        ph = delta * t
        return rwa_generator(params, J * np.cos(ph), J * np.sin(ph)) @ x

    return rhs


# ====================================================================
# Lab frame (no rotating-frame reduction)
# ====================================================================

def lab_hamiltonian(params: ModelParams) -> np.ndarray:
    """Bare two-body Hamiltonian; the control shift enters through L_eps."""
    return (-0.5 * params.omega_q * _SZ_Q
            - 0.5 * params.omega_tls * _SZ_T
            - params.J * _SXSX)


def lab_liouvillian(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(L0, L_eps) of the lab-frame master equation on the 16 real
    coordinates: dx/dt = (L0 + epsilon L_eps) x.  Column k is the
    matrix-level equation (commutator with the bare Hamiltonian plus the
    defect dissipator) applied to basis vector k.  No secular or
    rotating-frame approximation; jump operators act on the defect only."""
    l0 = (_commutator(lab_hamiltonian(params))
          + params.gamma1 * _DISS_EMIT + params.gamma2 * _DISS_ABSORB)
    l_eps = _commutator(-0.5 * _SZ_Q)
    return tuple(matrix_to_x(np.array([l0, l_eps])).swapaxes(-1, -2))


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

def qubit_purity(x: np.ndarray) -> np.ndarray:
    """Purity of the qubit's reduced state, for one state or for each
    state of a stack (the 16 coordinates on the last axis)."""
    p0 = x[..., 0] + x[..., 1]
    p1 = x[..., 2] + x[..., 3]
    return (p0 * p0 + p1 * p1
            + 2.0 * ((x[..., 6] + x[..., 12]) ** 2
                     + (x[..., 7] + x[..., 13]) ** 2))


def tls_purity(x: np.ndarray) -> np.ndarray:
    """Purity of the defect's reduced state, as qubit_purity."""
    p0 = x[..., 0] + x[..., 2]
    p1 = x[..., 1] + x[..., 3]
    return (p0 * p0 + p1 * p1
            + 2.0 * ((x[..., 4] + x[..., 14]) ** 2
                     + (x[..., 5] + x[..., 15]) ** 2))


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
