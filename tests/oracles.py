"""Independent oracles shared by the tests.

The matrix-form master equation here is assembled from the textbook
recipe (commutator plus jump-operator dissipator) out of its own Pauli
algebra and shares no code with the package internals.  Agreement between
this and the 16-coordinate generator is the backbone equivalence the
whole suite leans on; the lab-frame equation is checked the same way
against the package's lab Liouvillian.

The pole-time oracle integrates the regular S1 direction flow
q' = N(2J) q (reduced.make_rhs_s1) on the adaptive integrator and bisects
the first crossing on its Hermite trajectory, a path independent of the
closed-form solution of the same flow behind pole.t_min_numeric.  The
precision oracle solves the same closed form at 50 digits in mpmath: the
event times to far below double roundoff, with no bracketing or
bisection.

The positivity oracle takes the smallest eigenvalue of a start's float
entries at 50 digits with mpmath's Hermitian eigensolver, the exact
verdict that model.is_physical answers in closed form.

The gain oracle steps the reduced flow node by node (reduced.simulate_z)
to the pole time, where optimal.pole_gains applies one exponential over
the whole span.  The spherical chart, the coherence oscillator's first
zero and the region-A threshold are physics that only the tests read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from mpmath import mp

from tlspurify.integrator import integrate
from tlspurify.model import (InitialStateSpec, ModelParams, StepStats,
                             build_initial_state, matrix_to_x,
                             min_eigenvalue, mu_max, x_to_matrix, xi_max)
from tlspurify.pole import (STALL_CURVATURE_TOL, _stall_curvature,
                            initial_direction, initial_spherical,
                            stall_cosine)
from tlspurify.reduced import make_rhs_s1, simulate_z, x_to_z, z_purity

# ====================================================================
# Pauli algebra and model operators
# ====================================================================

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # lowers |1> -> |0>
I2 = np.eye(2, dtype=complex)

#: in-phase exchange piece (coefficient J1)
H_EXCHANGE = -0.5 * (np.kron(SX, SX) + np.kron(SY, SY))
#: quadrature exchange piece (coefficient J2)
H_QUADRATURE = -0.5 * (np.kron(SY, SX) - np.kron(SX, SY))
#: frame term (coefficient alpha)
H_FRAME = np.kron(SZ, I2)
#: defect jump operators (unit rate; scaled by gamma1/gamma2 below)
L_EMIT = np.kron(I2, SM)
L_ABSORB = np.kron(I2, SM.conj().T)


def _master_rhs(params: ModelParams, h: np.ndarray,
                rho: np.ndarray) -> np.ndarray:
    """Commutator with h plus the defect dissipator, matrices only."""
    d = -1.0j * (h @ rho - rho @ h)
    for g, op in ((params.gamma1, L_EMIT), (params.gamma2, L_ABSORB)):
        opd = op.conj().T
        anticomm = opd @ op
        d = d + g * (op @ rho @ opd
                     - 0.5 * (anticomm @ rho + rho @ anticomm))
    return d


def lindblad_rhs(params: ModelParams, rho: np.ndarray, j1: float, j2: float,
                 alpha: float = 0.0) -> np.ndarray:
    """drho/dt of the rotating-frame master equation, matrices only."""
    h = j1 * H_EXCHANGE + j2 * H_QUADRATURE + alpha * H_FRAME
    return _master_rhs(params, h, rho)


def lab_rhs(params: ModelParams, rho: np.ndarray,
            epsilon: float) -> np.ndarray:
    """drho/dt of the lab-frame master equation, matrices only: the bare
    Hamiltonian with the qubit splitting shifted by epsilon, and the same
    defect dissipator."""
    h = (-0.5 * (params.omega_q + epsilon) * np.kron(SZ, I2)
         - 0.5 * params.omega_tls * np.kron(I2, SZ)
         - params.J * np.kron(SX, SX))
    return _master_rhs(params, h, rho)


def partial_trace_defect(rho: np.ndarray) -> np.ndarray:
    """2x2 qubit state, tracing the defect out index-wise."""
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


def partial_trace_qubit(rho: np.ndarray) -> np.ndarray:
    """2x2 defect state, tracing the qubit out index-wise."""
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("kikj->ij", r)


# ====================================================================
# Random states
# ====================================================================

def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random 4x4 density matrix (A A^dag normalized)."""
    m = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_density_x(rng: np.random.Generator) -> np.ndarray:
    return matrix_to_x(random_density_matrix(rng))


def random_family_spec(params: ModelParams,
                       rng: np.random.Generator) -> InitialStateSpec:
    """Random member of the preparable initial-state family, kept inside
    the positivity region by drawing fractions of the ceilings and
    shrinking the qubit coherence until the assembled state is physical."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    xi_mag = rng.uniform(0.0, 0.9) * xi_max(params)
    xi_re = xi_mag * np.cos(phase)
    xi_im = xi_mag * np.sin(phase)
    cap = mu_max(params, complex(xi_re, xi_im))
    scale = rng.uniform(0.0, 0.9) * cap
    angle = rng.uniform(0.0, 2.0 * np.pi)
    while True:
        spec = InitialStateSpec(mu_q=scale * np.cos(angle),
                                nu_q=scale * np.sin(angle),
                                xi_re=xi_re, xi_im=xi_im)
        x = _family_x(params, spec)
        if min_eigenvalue(x) >= -1e-11:
            return spec
        scale *= 0.8


def _family_x(params: ModelParams, spec: InitialStateSpec) -> np.ndarray:
    """Family state assembled directly from its definition (product of
    thermal factors, qubit coherence dressed by the defect populations,
    cross coherence i*xi on the (|01>, |10>) entry)."""
    a_q, b_q = params.a_q, params.b_q
    a_t, b_t = params.a_t, params.b_t
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = a_q * a_t
    rho[1, 1] = a_q * b_t
    rho[2, 2] = b_q * a_t
    rho[3, 3] = b_q * b_t
    coh = complex(spec.mu_q, spec.nu_q)
    rho[0, 2] = coh * a_t
    rho[1, 3] = coh * b_t
    rho[1, 2] = 1.0j * spec.xi
    rho = rho + rho.conj().T - np.diag(rho.diagonal().real)
    return matrix_to_x(rho)


def family_x(params: ModelParams, mu: complex, xi: complex) -> np.ndarray:
    """The start of qubit coherence mu and cross coherence xi, assembled
    by _family_x with no physicality check."""
    return _family_x(params, InitialStateSpec(mu_q=mu.real, nu_q=mu.imag,
                                              xi_re=xi.real, xi_im=xi.imag))


def mp_min_eigenvalue(x: np.ndarray):
    """Smallest eigenvalue (an mpf) of the density matrix of coordinates
    x at 50 digits: the exact value for its float entries, to far below
    their roundoff."""
    rho = x_to_matrix(x)
    with mp.workdps(50):
        a = mp.matrix([[mp.mpc(v.real, v.imag) for v in row] for row in rho])
        return min(mp.eighe(a, eigvals_only=True))


def mp_boundary_margin(params: ModelParams, mu: complex, xi: complex):
    """(Q (1 - |xi|/xi_max) - |mu|^2) / Q at 50 digits, with Q = a_q b_q
    and xi_max = sqrt(a_q b_q a_t b_t) of the float populations: positive
    inside the positivity boundary, negative past it (-inf for xi != 0
    when xi_max = 0)."""
    a_q, b_q = params.a_q, params.b_q
    a_t, b_t = params.a_t, params.b_t
    with mp.workdps(50):
        q = mp.mpf(a_q) * mp.mpf(b_q)
        cap = mp.sqrt(q * mp.mpf(a_t) * mp.mpf(b_t))
        r = mp.hypot(xi.real, xi.imag)
        if r == 0:
            s = mp.mpf(0)
        elif cap == 0:
            return -mp.inf
        else:
            s = r / cap
        return 1 - s - (mp.mpf(mu.real) ** 2 + mp.mpf(mu.imag) ** 2) / q


# ====================================================================
# Pole time by direct integration of the S1 direction flow
# ====================================================================

@dataclass
class S1Run:
    status: str                 # "reached" | "trapped" | "horizon"
    t_stop: float
    r: float
    c: float
    theta: float
    stats: StepStats


#: absolute time resolution of a bisected crossing
CROSSING_TIME_TOL = 1e-10


def _falling_root(g, lo: float, hi: float) -> float:
    """Bisect a falling sign change of g on [lo, hi] to CROSSING_TIME_TOL."""
    while hi - lo > CROSSING_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def s1_pole_run(params: ModelParams, xi: float = 0.0, *,
                horizon_mult: float = 20.0, rtol: float = 1e-10,
                atol: float = 1e-10) -> S1Run:
    """Integrate the u == 0 direction q = e^{gamma t/2} (w, v, d) from the
    thermal-product start to horizon_mult * pi/(2J), then find the first
    accepted step on which the pole (q_v falls through 0) or a guarded
    stall (r^2 dtheta/dt, up to a positive factor, falls through 0) comes,
    and bisect it on the Hermite trajectory.  The stall guard is
    scale-free, so it reads the direction as it is."""
    a, b, eta = 2.0 * params.J, 0.5 * params.gamma, params.eta
    res = integrate(make_rhs_s1(params), (0.0, horizon_mult * params.t0),
                    initial_direction(params, xi), rtol=rtol, atol=atol)
    traj = res.trajectory

    def pole(q):
        return q[..., 1]

    def rate(q):
        return a * (q[..., 0] ** 2 + q[..., 1] ** 2) - b * q[..., 2] * q[..., 1]

    def stalls(q):
        return (_stall_curvature(params.gamma, eta, math.hypot(q[0], q[1]),
                                 eta - q[2], math.atan2(q[0], q[1]))
                <= STALL_CURVATURE_TOL)

    status, t_stop = "horizon", float(res.t[-1])
    steps = sorted({int(k) for g in (pole, rate)
                    for k in np.flatnonzero((g(res.y[:-1]) > 0.0)
                                            & (g(res.y[1:]) <= 0.0))})
    for k in steps:
        hits = []
        for name, g in (("reached", pole), ("trapped", rate)):
            if g(res.y[k]) > 0.0 >= g(res.y[k + 1]):
                t = _falling_root(lambda t: g(traj(t)), res.t[k],
                                  res.t[k + 1])
                if name == "reached" or stalls(traj(t)):
                    hits.append((t, name))
        if hits:
            t_stop, status = min(hits)
            break
    w, v, d = traj(t_stop)
    f = math.exp(-b * t_stop)
    return S1Run(status, t_stop, f * math.hypot(w, v), eta - f * d,
                 math.atan2(w, v), res.stats)


# ====================================================================
# Spherical coordinates, closed-form thresholds, coherence gain
# ====================================================================

#: angular distance from the poles below which phi is meaningless
POLE_GUARD = 1e-6


def z_to_spherical(z: np.ndarray) -> tuple[float, float, float, float]:
    """(r, c, theta, phi) of the S1 block of reduced coordinates, on the
    asin chart theta in [-pi/2, pi/2]; phi = 0 at (or within POLE_GUARD
    of) a pole, and theta = phi = 0 at zero radius."""
    c = -0.5 * (z[3] + 1.0)
    w = z[0] - c
    r = math.sqrt(w * w + z[1] ** 2 + z[2] ** 2)
    if r == 0.0:
        return 0.0, float(c), 0.0, 0.0
    theta = math.asin(max(-1.0, min(1.0, w / r)))
    if abs(theta) >= 0.5 * math.pi - POLE_GUARD:
        phi = 0.0
    else:
        phi = math.atan2(z[1], z[2])
    return float(r), float(c), float(theta), float(phi)


def s2_first_zero(params: ModelParams) -> float:
    """First zero of the resonant coherence block z'' + (gamma/2) z' +
    J^2 z = 0 started at rest; infinite in the overdamped and critical
    regimes.  Coincides with pole.t_min_analytic."""
    q = 0.25 * params.gamma
    J = params.J
    disc = J * J - q * q
    if J <= 0.0 or disc <= 1e-12 * J * J:
        return math.inf
    w = math.sqrt(disc)
    return (0.5 * math.pi + math.atan(q / w)) / w


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


def simulated_gain(params: ModelParams, xi: float, mu: float,
                   t_pole: float) -> float:
    """Relative purity gain P / P_S1 - 1 at t_pole from the start (mu, xi),
    read off the last node of a simulate_z run over [0, t_pole]: the
    reduced flow stepped node by node, not one exponential over the span
    as optimal.pole_gains applies it."""
    state = build_initial_state(params, InitialStateSpec(mu_q=mu, xi_re=xi))
    z = simulate_z(params, x_to_z(state.x), (0.0, t_pole)).y[-1]
    return float(z_purity(z) / (0.5 + 2.0 * z[0] ** 2) - 1.0)


# ====================================================================
# Event times at 50 digits
# ====================================================================

def mp_first_event(params: ModelParams, xi: float = 0.0, *,
                   horizon_mult: float = 20.0) -> tuple[str, object]:
    """(status, event time as an mpf) of the u == 0 flow, at 50 digits,
    from the float start (r0, c0, theta0) the engine reads; the time is
    None when the run meets neither event by the horizon.

    The direction D(t) = s0 + S(t) N s0 + C(t) N^2 s0 is a quadratic in
    x = tan(Omega t/2) (times 1 + x^2), in x = e^{-kappa t} (times
    e^{-kappa t}) or in x = t, so v and the theta-rate form
    2J(w^2 + v^2) - (gamma/2) d v are polynomials in x.  mpmath's
    polyroots gives every root; a real root where the function falls is
    a crossing, and a rate crossing counts as a stall when the curvature
    guard holds there.  The rate vanishes on eigenvectors of N, which is
    what the direction is at x = 0 and x = 1/0 for Omega^2 < 0 and at
    t = 1/0 for Omega^2 = 0; those coefficients are exactly 0.
    """
    with mp.workdps(50):
        J, gamma, eta = (mp.mpf(x) for x in (params.J, params.gamma,
                                              params.eta))
        r0, c0, th0 = (mp.mpf(x) for x in initial_spherical(params, xi))
        a, b = 2 * J, gamma / 2
        om2 = a * a - b * b
        om = mp.sqrt(abs(om2))
        t_end = mp.mpf(horizon_mult) * mp.mpf(params.t0)

        def apply_n(s):
            return [a * s[1] - b * s[2], -a * s[0], -b * s[0]]

        s0 = [r0 * mp.sin(th0), r0 * mp.cos(th0), eta - c0]
        n1 = apply_n(s0)
        n2 = apply_n(n1)
        if not any(s0):
            return "trapped", None
        if om2 > 0:
            coef = [s0, [2 * x / om for x in n1],
                    [x + 2 * y / om ** 2 for x, y in zip(s0, n2)]]
        elif om2 < 0:
            coef = [[x / (2 * om) + y / (2 * om ** 2) for x, y in zip(n1, n2)],
                    [x - y / om ** 2 for x, y in zip(s0, n2)],
                    [y / (2 * om ** 2) - x / (2 * om) for x, y in zip(n1, n2)]]
        else:
            coef = [s0, n1, [y / 2 for y in n2]]

        def form(p, q):
            return (a * (p[0] * q[0] + p[1] * q[1])
                    - b * (p[2] * q[1] + q[2] * p[1]) / 2)

        v_poly = [c[1] for c in coef]
        rate_poly = [sum(form(coef[i], coef[k - i])
                         for i in range(max(0, k - 2), min(k, 2) + 1))
                     for k in range(5)]
        if om2 <= 0:
            rate_poly[4] = mp.zero
        if om2 < 0:
            rate_poly = rate_poly[1:]       # the rate over x

        def direction(t):
            if om2 > 0:
                s, c = mp.sin(om * t) / om, (1 - mp.cos(om * t)) / om2
            elif om2 < 0:
                s, c = mp.sinh(om * t) / om, (mp.cosh(om * t) - 1) / -om2
            else:
                s, c = t, t * t / 2
            return [x + s * y + c * z for x, y, z in zip(s0, n1, n2)]

        def to_time(x):
            if om2 > 0:
                return 2 * (mp.atan(x) % mp.pi) / om
            if om2 < 0:
                return -mp.log(x) / om if 0 < x <= 1 else None
            return x

        def falling_times(poly):
            """Times of the real roots where the polynomial falls in t."""
            while poly and poly[-1] == 0:
                poly = poly[:-1]
            if len(poly) < 2:
                return []
            out = []
            for z in mp.polyroots(poly[::-1], maxsteps=200, extraprec=200):
                z = mp.mpc(z)
                if abs(z.imag) > mp.mpf(10) ** -35 * (1 + abs(z.real)):
                    continue
                x = z.real
                slope = sum(k * c * x ** (k - 1)
                            for k, c in enumerate(poly) if k)
                t = to_time(x)
                falls = slope > 0 if om2 < 0 else slope < 0
                if t is not None and t > 0 and falls:
                    out.append(t)
            return sorted(out)

        def guarded(t):
            w, v, d = direction(t)
            th = mp.atan2(w, v)
            curv = (gamma ** 2 / 4 * mp.cos(th) * mp.sin(th)
                    * (w * w + v * v - d * d) / (w * w + v * v))
            return curv <= STALL_CURVATURE_TOL

        poles = falling_times(v_poly)
        t_pole = next((t for t in poles if t <= t_end), None)
        for t in falling_times(rate_poly):
            if t > t_end or (t_pole is not None and t >= t_pole):
                break
            if guarded(t):
                return "trapped", t
        if t_pole is not None:
            return "reached", t_pole
        if om2 > 0 or any(t > t_end for t in poles):
            return "horizon", None
        return "trapped", None


# ====================================================================
# Reference CSV renderer: one isinstance chain per cell
# ====================================================================

def _reference_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value reached the writer: {x!r}")
    return f"{x:.16e}"


def reference_csv(table, cfg) -> str:
    """The CSV text of an output.Table, rendered cell by cell and joined
    at once: the renderer the column-wise writer must match byte for
    byte."""
    lines = [f"# {table.command}"]
    lines += [f"# {line}" for line in cfg.echo_lines()]
    for key in sorted(table.metadata):
        lines.append(f"# meta {key} = {_reference_cell(table.metadata[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"
