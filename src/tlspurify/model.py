"""Model parameters and density-matrix bookkeeping.

The system is a controllable qubit (splitting ``omega_q``) exchange-coupled
with strength ``J`` to a two-level defect (splitting ``omega_tls``).  The
defect leaks into a thermal bath at inverse temperature ``beta`` with rate
prefactor ``kappa``.  Everything downstream works in a real parameterization
of the 4x4 density matrix:

    rho = [[ x1,        x5 + i x6,  x7 + i x8,   x9 + i x10],
           [ .,         x2,         x11 + i x12, x13 + i x14],
           [ .,         .,          x3,          x15 + i x16],
           [ .,         .,          .,           x4         ]]

(lower triangle by Hermiticity; code uses 0-based slots x[0]..x[15]).
The basis ordering is |qubit, defect> = |00>, |01>, |10>, |11> with |0> the
local ground state of each -h/2 sigma_z term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: largest tolerated negative eigenvalue for a "physical" density matrix
POSITIVITY_TOL = 1e-10

#: bisection resolution for positivity boundaries (mu_max and friends)
BISECTION_TOL = 1e-10

# upper-triangle entry -> (real slot, imag slot), 0-based
OFFDIAG_SLOTS = {
    (0, 1): (4, 5),
    (0, 2): (6, 7),
    (0, 3): (8, 9),
    (1, 2): (10, 11),
    (1, 3): (12, 13),
    (2, 3): (14, 15),
}


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


@dataclass(frozen=True)
class BathRates:
    """Decay channels of the defect: emission gamma1, absorption gamma2."""

    n_occ: float      # thermal occupation of the bath mode at omega_tls
    gamma1: float     # kappa * (n_occ + 1), emission
    gamma2: float     # kappa * n_occ, absorption
    gamma: float      # gamma1 + gamma2
    eta: float        # gamma1/gamma - 1/2, the asymptotic polarization scale


def bath_rates(kappa: float, omega_tls: float, beta: float) -> BathRates:
    """Thermal rates seen by the defect.

    ``eta`` coincides with a_tls - 1/2 identically; for kappa = 0 the ratio
    gamma1/gamma is ill-defined and the identity value is used directly.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if beta <= 0.0:
        raise ValueError(f"bath_rates needs beta > 0, got {beta}")
    if omega_tls <= 0.0:
        raise ValueError(f"omega_tls must be positive, got {omega_tls}")
    n_occ = bose_occupation(omega_tls, beta)
    gamma1 = kappa * (n_occ + 1.0)
    gamma2 = kappa * n_occ
    gamma = gamma1 + gamma2
    if gamma > 0.0:
        eta = gamma1 / gamma - 0.5
    else:
        eta = thermal_populations(omega_tls, beta)[0] - 0.5
    return BathRates(n_occ=n_occ, gamma1=gamma1, gamma2=gamma2, gamma=gamma, eta=eta)


class ParamError(ValueError):
    """A model parameter out of its range; name is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


@dataclass(frozen=True)
class ModelParams:
    """Static model parameters.

    The rotating-frame treatment assumes J << omega_q and omega_q < omega_tls;
    the latter is enforced, the former is the caller's responsibility.
    """

    omega_q: float = 1.0
    omega_tls: float = 3.0
    beta: float = 1.0
    J: float = 0.1
    kappa: float = 0.0

    def __post_init__(self):
        if not self.omega_q > 0.0:
            raise ParamError("omega_q", f"must be > 0, got {self.omega_q}")
        if not self.omega_tls > self.omega_q:
            raise ParamError("omega_tls", f"must be > omega_q = {self.omega_q}, "
                             f"got {self.omega_tls}")
        if not self.beta > 0.0:
            raise ParamError("beta", f"must be > 0, got {self.beta}")
        if not self.J >= 0.0:
            raise ParamError("J", f"must be >= 0, got {self.J}")
        if not self.kappa >= 0.0:
            raise ParamError("kappa", f"must be >= 0, got {self.kappa}")

    # -- derived thermal quantities ------------------------------------

    @property
    def qubit_populations(self) -> tuple[float, float]:
        return thermal_populations(self.omega_q, self.beta)

    @property
    def tls_populations(self) -> tuple[float, float]:
        return thermal_populations(self.omega_tls, self.beta)

    @property
    def rates(self) -> BathRates:
        return bath_rates(self.kappa, self.omega_tls, self.beta)

    @property
    def gamma(self) -> float:
        return self.rates.gamma

    @property
    def eta(self) -> float:
        return self.rates.eta

    @property
    def t0(self) -> float:
        """Reference time pi/(2J): lossless pole-to-pole transport time."""
        if self.J == 0.0:
            return math.inf
        return math.pi / (2.0 * self.J)

    def with_gamma(self, gamma: float) -> "ModelParams":
        """Same model with kappa chosen so the total rate equals ``gamma``."""
        if gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        return replace(self, kappa=gamma / (2.0 * self.rates.n_occ + 1.0))

    def with_gamma_over_j(self, ratio: float) -> "ModelParams":
        return self.with_gamma(ratio * self.J)


@dataclass(frozen=True)
class InitialStateSpec:
    """Knobs of the preparable initial-state family.

    mu_q + i nu_q is the qubit coherence on top of its thermal populations;
    xi = xi_re + i xi_im is the qubit-defect cross coherence sitting on the
    (|01>, |10>) pair.
    """

    mu_q: float = 0.0
    nu_q: float = 0.0
    xi_re: float = 0.0
    xi_im: float = 0.0

    @property
    def xi(self) -> complex:
        return complex(self.xi_re, self.xi_im)


@dataclass
class DensityState:
    """A 4x4 density matrix stored as its 16 real coordinates."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape != (16,):
            raise ValueError(f"expected 16 coordinates, got shape {self.x.shape}")

    def to_matrix(self) -> np.ndarray:
        return x_to_matrix(self.x)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "DensityState":
        return cls(matrix_to_x(rho))

    @property
    def trace(self) -> float:
        return float(self.x[:4].sum())

    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self.x)


def x_to_matrix(x: np.ndarray) -> np.ndarray:
    """Rebuild the complex 4x4 density matrix from its 16 real coordinates."""
    x = np.asarray(x, dtype=float)
    rho = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        rho[k, k] = x[k]
    for (i, j), (re, im) in OFFDIAG_SLOTS.items():
        rho[i, j] = complex(x[re], x[im])
        rho[j, i] = complex(x[re], -x[im])
    return rho


def matrix_to_x(rho: np.ndarray) -> np.ndarray:
    """Project a (numerically) Hermitian 4x4 matrix onto the 16 coordinates."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm_defect = np.abs(rho - rho.conj().T).max()
    if herm_defect > 1e-9:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    x = np.zeros(16)
    for k in range(4):
        x[k] = rho[k, k].real
    for (i, j), (re, im) in OFFDIAG_SLOTS.items():
        # average the two Hermitian partners to kill roundoff asymmetry
        val = 0.5 * (rho[i, j] + rho[j, i].conjugate())
        x[re] = val.real
        x[im] = val.imag
    return x


def min_eigenvalue(x: np.ndarray) -> float:
    """Smallest eigenvalue of the state; slightly negative values flag
    positivity loss beyond roundoff."""
    return float(np.linalg.eigvalsh(x_to_matrix(x))[0])


def _assemble_x(params: ModelParams, mu_q: float, nu_q: float, xi: complex) -> np.ndarray:
    """Raw coordinate assembly of the initial-state family (no physicality check).

    Product part: (thermal qubit + coherence mu+i nu) (x) (thermal defect);
    correlation part: i*xi on the (|01>, |10>) entry.
    """
    a_q, b_q = params.qubit_populations
    a_t, b_t = params.tls_populations
    x = np.zeros(16)
    x[0] = a_q * a_t
    x[1] = a_q * b_t
    x[2] = b_q * a_t
    x[3] = b_q * b_t
    # qubit coherence dressed by the defect populations: entries (0,2), (1,3)
    x[6] = mu_q * a_t
    x[7] = nu_q * a_t
    x[12] = mu_q * b_t
    x[13] = nu_q * b_t
    # cross coherence i*xi on entry (1,2)
    x[10] = -xi.imag
    x[11] = xi.real
    return x


def build_initial_state(params: ModelParams, spec: InitialStateSpec) -> DensityState:
    """Assemble the initial density matrix and verify it is physical."""
    x = _assemble_x(params, spec.mu_q, spec.nu_q, spec.xi)
    lam = min_eigenvalue(x)
    if lam < -POSITIVITY_TOL:
        raise ValueError(
            f"initial state is not positive (min eigenvalue {lam:.3e}); "
            f"reduce mu_q/nu_q/xi"
        )
    return DensityState(x)


def xi_max(params: ModelParams) -> float:
    """Largest cross-coherence magnitude compatible with positivity at
    mu_q = nu_q = 0: sqrt(a_q b_q a_tls b_tls)."""
    a_q, b_q = params.qubit_populations
    a_t, b_t = params.tls_populations
    return math.sqrt(a_q * b_q * a_t * b_t)


def mu_max(params: ModelParams, xi: complex | float = 0.0) -> float:
    """Largest real qubit coherence mu_q keeping the state positive at the
    given cross coherence, located by bisection to BISECTION_TOL."""
    xi = complex(xi)

    def feasible(mu: float) -> bool:
        return min_eigenvalue(_assemble_x(params, mu, 0.0, xi)) >= -POSITIVITY_TOL

    if not feasible(0.0):
        raise ValueError(f"no positive state exists at xi = {xi}")
    lo, hi = 0.0, 0.5
    if feasible(hi):
        return hi
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class StepStats:
    """Work counters of one run: accepted and rejected steps and
    right-hand-side evaluations of the integrator, or roots refined and
    closed-form evaluations of the pole engine."""

    accepted: int = 0
    rejected: int = 0
    n_eval: int = 0
