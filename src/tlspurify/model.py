"""Model parameters and density-matrix bookkeeping.

The system is a controllable qubit (splitting ``omega_q``) exchange-coupled
with strength ``J`` to a two-level defect (splitting ``omega_tls``).  The
defect leaks into a thermal bath at inverse temperature ``beta`` with rate
prefactor ``kappa``.  ModelParams holds these five parameters and derives,
once, every thermal constant the other layers read, from
thermal_populations and bose_occupation.  Everything downstream works in
a real parameterization of the 4x4 density matrix:

    rho = [[ x1,        x5 + i x6,  x7 + i x8,   x9 + i x10],
           [ .,         x2,         x11 + i x12, x13 + i x14],
           [ .,         .,          x3,          x15 + i x16],
           [ .,         .,          .,           x4         ]]

(lower triangle by Hermiticity; code uses 0-based slots x[0]..x[15]).
The basis ordering is |qubit, defect> = |00>, |01>, |10>, |11> with |0> the
local ground state of each -h/2 sigma_z term.  x_to_matrix and matrix_to_x
convert between the two forms, for one state or a stack of them, through
index arrays built from OFFDIAG_SLOTS.

The preparable starts (thermal product, qubit coherence m = mu_q + i nu_q,
cross coherence xi) are positive iff |xi| <= xi_max = sqrt(QT) and
|m|^2 <= Q (1 - |xi|/xi_max), with Q = a_q b_q, T = a_t b_t.  In the order
(|00>, |10>, |01>, |11>) a start is tridiagonal, diagonal a_t (a_q, b_q),
b_t (a_q, b_q), off-diagonal moduli |m| a_t, |xi|, |m| b_t: a chain, so the
phases gauge away.  With s = Q - |m|^2 the leading minors are a_q a_t,
a_t^2 s, a_q a_t (T s - |xi|^2), T (T s^2 - Q |xi|^2); for Q, T > 0 all
are positive iff s > |xi| sqrt(Q/T) (the second asks s > 0, the fourth
then the bound, which gives the third, as s <= Q makes T s^2/Q <= T s).
The positive semidefinite starts, affine in (m, xi), form a convex set
that holds the positive definite m = xi = 0, so each is a limit of
positive definite starts on its segment to it: they are the closure of
the positive definite ones.  Where Q or T rounds to 0, zero diagonal entries
force xi = 0 (and m = 0 if Q = 0), as the bound says with xi_max = 0.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

#: slack of the positivity test in |m|^2, relative to a_q b_q: a start on
#: the boundary analytically stays physical through roundoff
BOUNDARY_RTOL = 1e-12

# upper-triangle entry -> (real slot, imag slot), 0-based
OFFDIAG_SLOTS = {
    (0, 1): (4, 5),
    (0, 2): (6, 7),
    (0, 3): (8, 9),
    (1, 2): (10, 11),
    (1, 3): (12, 13),
    (2, 3): (14, 15),
}
# the same layout as index arrays: diagonal, upper entries, their slots
_DIAG = np.arange(4)
_ROWS, _COLS = np.array(list(OFFDIAG_SLOTS)).T
_RE, _IM = np.array(list(OFFDIAG_SLOTS.values())).T


def thermal_populations(omega: float, beta: float) -> tuple[float, float]:
    """Ground/excited occupation (a, b) of a two-level system at equilibrium.

    a = e^{beta*omega/2} / (2 cosh(beta*omega/2)) = 1/(1 + e^{-beta*omega}),
    b = 1 - a.  ``beta = 0`` is allowed and gives the maximally mixed (1/2, 1/2).
    """
    if omega <= 0.0:
        raise ValueError(f"level splitting must be positive, got {omega}")
    if beta < 0.0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta}")
    a = 1.0 / (1.0 + math.exp(-beta * omega))
    return a, 1.0 - a


def bose_occupation(omega: float, beta: float) -> float:
    """Thermal occupation 1/(e^{beta omega} - 1) of a bath mode, written as
    e^{-x}/(1 - e^{-x}) with x = beta omega so that it falls to 0 in the
    cold limit instead of overflowing."""
    x = beta * omega
    return math.exp(-x) / -math.expm1(-x)


class ParamError(ValueError):
    """A model parameter out of its range; name is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


class ModelParams:
    """Static model parameters, immutable and equal by value.

    The rotating-frame treatment assumes J << omega_q and omega_q < omega_tls;
    the latter is enforced, the former is the caller's responsibility.  A
    beta so small that beta * omega_tls is below the smallest normal float
    is refused here: the bath occupation 1/(e^{beta omega_tls} - 1) and the
    rates built on it have no float value there.

    The constructor derives the thermal constants once, after its range
    checks, as read-only attributes: the ground and excited populations
    a_q, b_q of the qubit and a_t, b_t of the defect; the bath occupation
    n_occ at omega_tls; the emission and absorption rates
    gamma1 = kappa (n_occ + 1) and gamma2 = kappa n_occ, their sum gamma;
    the asymptotic polarization scale eta = gamma1/gamma - 1/2, which
    coincides with a_t - 1/2 and takes that value where gamma = 0; and the
    lossless pole-to-pole transport time t0 = pi/(2J), infinite at J = 0.
    Equality, hashing, repr, replace and pickling see only the five
    parameters.
    """

    __slots__ = ("omega_q", "omega_tls", "beta", "J", "kappa",
                 "a_q", "b_q", "a_t", "b_t", "n_occ",
                 "gamma1", "gamma2", "gamma", "eta", "t0")

    def __init__(self, omega_q: float = 1.0, omega_tls: float = 3.0,
                 beta: float = 1.0, J: float = 0.1, kappa: float = 0.0):
        if not omega_q > 0.0:
            raise ParamError("omega_q", f"must be > 0, got {omega_q}")
        if not omega_tls > omega_q:
            raise ParamError("omega_tls", f"must be > omega_q = {omega_q}, "
                             f"got {omega_tls}")
        if not beta > 0.0:
            raise ParamError("beta", f"must be > 0, got {beta}")
        if not beta * omega_tls >= sys.float_info.min:
            raise ParamError("beta", f"is too small: beta * omega_tls = "
                             f"{beta * omega_tls!r} is not a normal float")
        if not J >= 0.0:
            raise ParamError("J", f"must be >= 0, got {J}")
        if not kappa >= 0.0:
            raise ParamError("kappa", f"must be >= 0, got {kappa}")
        a_q, b_q = thermal_populations(omega_q, beta)
        a_t, b_t = thermal_populations(omega_tls, beta)
        n_occ = bose_occupation(omega_tls, beta)
        gamma1 = kappa * (n_occ + 1.0)
        gamma2 = kappa * n_occ
        gamma = gamma1 + gamma2
        eta = gamma1 / gamma - 0.5 if gamma > 0.0 else a_t - 0.5
        t0 = math.pi / (2.0 * J) if J > 0.0 else math.inf
        init = object.__setattr__
        for name, value in zip(self.__slots__, (
                omega_q, omega_tls, beta, J, kappa, a_q, b_q, a_t, b_t,
                n_occ, gamma1, gamma2, gamma, eta, t0)):
            init(self, name, value)

    def _values(self) -> tuple[float, float, float, float, float]:
        return self.omega_q, self.omega_tls, self.beta, self.J, self.kappa

    def replace(self, **changes) -> "ModelParams":
        """These parameters with the given ones changed, checked again."""
        return ModelParams(**dict(zip(_PARAM_NAMES, self._values()),
                                  **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelParams is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"ModelParams is immutable: cannot delete {name}")

    def __eq__(self, other):
        if type(other) is not ModelParams:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which __setattr__ allows
        return ModelParams, self._values()

    def __repr__(self) -> str:
        return ("ModelParams(omega_q={!r}, omega_tls={!r}, beta={!r}, "
                "J={!r}, kappa={!r})".format(*self._values()))

    def with_gamma(self, gamma: float) -> "ModelParams":
        """Same model with kappa chosen so the total rate equals ``gamma``."""
        if gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        return self.replace(kappa=gamma / (2.0 * self.n_occ + 1.0))

    def with_gamma_over_j(self, ratio: float) -> "ModelParams":
        return self.with_gamma(ratio * self.J)


#: the parameters of ModelParams, in the order of its arguments
_PARAM_NAMES = ModelParams.__slots__[:5]


class InitialStateSpec(NamedTuple):
    """Knobs of the preparable initial-state family.

    mu_q + i nu_q is the qubit coherence on top of its thermal populations;
    xi = xi_re + i xi_im is the qubit-defect cross coherence sitting on the
    (|01>, |10>) pair.
    """

    mu_q: float = 0.0
    nu_q: float = 0.0
    xi_re: float = 0.0
    xi_im: float = 0.0


class DensityState:
    """A 4x4 density matrix stored as its 16 real coordinates, or a stack
    of them on the last axis."""

    def __init__(self, x: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        if self.x.shape[-1:] != (16,):
            raise ValueError(f"expected 16 coordinates, got shape {self.x.shape}")


def x_to_matrix(x: np.ndarray) -> np.ndarray:
    """Rebuild the complex 4x4 density matrix from its 16 real coordinates
    (a stack of them from a stack of coordinate vectors)."""
    x = np.asarray(x, dtype=float)
    rho = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    re, im = rho.real, rho.imag
    re[..., _DIAG, _DIAG] = x[..., :4]
    re[..., _ROWS, _COLS] = re[..., _COLS, _ROWS] = x[..., _RE]
    im[..., _ROWS, _COLS] = x[..., _IM]
    im[..., _COLS, _ROWS] = -x[..., _IM]
    return rho


def matrix_to_x(rho: np.ndarray) -> np.ndarray:
    """Project a (numerically) Hermitian 4x4 matrix, or a stack of them,
    onto the 16 coordinates."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm_defect = np.abs(rho - rho.conj().swapaxes(-1, -2)).max()
    if herm_defect > 1e-9:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    x = np.empty(rho.shape[:-2] + (16,))
    x[..., :4] = rho[..., _DIAG, _DIAG].real
    # average the two Hermitian partners to kill roundoff asymmetry
    upper = 0.5 * (rho[..., _ROWS, _COLS] + rho[..., _COLS, _ROWS].conj())
    x[..., _RE] = upper.real
    x[..., _IM] = upper.imag
    return x


def min_eigenvalue(x: np.ndarray) -> float:
    """Smallest eigenvalue of the state, or of all states of a stack;
    slightly negative values flag positivity loss beyond roundoff."""
    return float(np.linalg.eigvalsh(x_to_matrix(x))[..., 0].min())


def _ceiling_sq(params: ModelParams, xi):
    """(Q, c): Q = a_q b_q and c = Q (1 - |xi|/xi_max), the largest |m|^2
    of a positive start at cross coherence xi, a number or an array; where
    xi_max = 0, c is Q at xi = 0 and -inf at any other xi."""
    q, r = params.a_q * params.b_q, np.abs(xi)
    cap = xi_max(params)
    if cap > 0.0:
        return q, q * (1.0 - r / cap)
    return q, np.where(r == 0.0, q, -np.inf)


def is_physical(params: ModelParams, m, xi):
    """Whether the start of qubit coherence m = mu_q + i nu_q and cross
    coherence xi is positive (the closed form of the module docstring),
    up to BOUNDARY_RTOL; numbers or arrays, broadcast against each
    other."""
    q, ceiling = _ceiling_sq(params, xi)
    return np.square(np.abs(m)) <= ceiling + BOUNDARY_RTOL * q


def build_initial_state(params: ModelParams, spec: InitialStateSpec) -> DensityState:
    """The initial density matrix, checked to be physical: the thermal
    product, plus the qubit coherence m = mu_q + i nu_q dressed by the
    defect populations on entries (0,2), (1,3), plus i*xi on entry (1,2).
    The fields of spec may be arrays: they broadcast against each other,
    and the result holds one state per cell, shape (..., 16)."""
    mu, nu, xi_re, xi_im = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in spec))
    m, xi = np.hypot(mu, nu), np.hypot(xi_re, xi_im)
    if not np.all(ok := is_physical(params, m, xi)):
        bad = np.argmin(ok)
        raise ValueError(
            f"initial state is not positive (|mu_q + i nu_q| = "
            f"{m.flat[bad]:.6g} at |xi| = {xi.flat[bad]:.6g}, xi_max = "
            f"{xi_max(params):.6g}); reduce mu_q/nu_q/xi")
    a_q, b_q, a_t, b_t = params.a_q, params.b_q, params.a_t, params.b_t
    x = np.zeros(mu.shape + (16,))
    x[..., :4] = a_q * a_t, a_q * b_t, b_q * a_t, b_q * b_t
    x[..., 6], x[..., 7] = mu * a_t, nu * a_t
    x[..., 12], x[..., 13] = mu * b_t, nu * b_t
    x[..., 10], x[..., 11] = -xi_im, xi_re
    return DensityState(x)


def xi_max(params: ModelParams) -> float:
    """Largest cross-coherence magnitude compatible with positivity at
    mu_q = nu_q = 0: sqrt(a_q b_q a_tls b_tls)."""
    return math.sqrt(params.a_q * params.b_q * params.a_t * params.b_t)


def mu_max(params: ModelParams, xi=0.0):
    """Largest real qubit coherence mu_q keeping the state positive at the
    given cross coherence, a number or an array:
    sqrt(a_q b_q (1 - |xi|/xi_max)) (is_physical)."""
    if not np.all(is_physical(params, 0.0, xi)):
        raise ValueError(f"no positive state exists at xi = {xi}")
    return np.sqrt(np.maximum(0.0, _ceiling_sq(params, xi)[1]))


class StepStats:
    """Work counters of one run: accepted and rejected steps and
    right-hand-side evaluations of the integrator, or roots refined and
    closed-form evaluations of the pole engine."""

    __slots__ = ("accepted", "rejected", "n_eval")

    def __init__(self, accepted: int = 0, rejected: int = 0, n_eval: int = 0):
        self.accepted = accepted
        self.rejected = rejected
        self.n_eval = n_eval

    def _counts(self) -> tuple[int, int, int]:
        return self.accepted, self.rejected, self.n_eval

    def __add__(self, other: "StepStats") -> "StepStats":
        return StepStats(*(a + b for a, b in zip(self._counts(),
                                                  other._counts())))

    def __eq__(self, other):
        if type(other) is not StepStats:
            return NotImplemented
        return self._counts() == other._counts()

    def __repr__(self) -> str:
        return ("StepStats(accepted={!r}, rejected={!r}, n_eval={!r})"
                .format(*self._counts()))
