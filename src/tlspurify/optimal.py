"""Time-optimal purification results and trajectory classification.

Everything here runs the locked control u == 0 (drive phase glued to the
coherence azimuth), which is the time-optimal policy for steering theta to
the north pole: theta advances at the full rate 2J on top of the drift.

Closed forms:
  * t_min_analytic: pole-arrival time from the uncorrelated thermal start,
    finite exactly when gamma < 4J (coupling beats the bath; "coherent"
    side of the boundary J_min = gamma/4).
  * s2_resonant_solution: the decoupled qubit-coherence block is a damped
    oscillator; its first zero coincides with t_min_analytic, so an extra
    qubit coherence mu costs nothing at the optimal arrival time.

Numerics:
  * t_min_numeric solves the u == 0 flow exactly: in (r sin theta,
    r cos theta, eta - c) it is linear, so the pole and the guarded stall
    are roots of closed-form functions, bracketed on a grid and bisected.
  * classify_region labels an initial cross-coherence xi as
      "A": the stall condition already holds at t = 0 (no flow run),
      "B": theta rate falls through zero en route (stalled short of the
           pole), or the pole is provably never reached,
      "C": reaches the pole,
      "U": reaches the pole only after the horizon.
  * delta_p quantifies how much purity transiently overshoots the value at
    pole arrival when the initial state carries extra coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drive import TableDrive
from .integrator import StepStats, integrate
from .model import (InitialStateSpec, ModelParams, build_initial_state,
                    xi_max)
from .reduced import (POLE_GUARD, make_rhs_rct, simulate_z, x_to_z, z_purity,
                      z_purity_many)

#: |gamma - 4J| below this counts as sitting on the divergence boundary
CRITICAL_TOL = 1e-12

#: curvature slack when deciding that a theta-rate zero is a genuine stall
STALL_CURVATURE_TOL = 1e-12

HALF_PI = 0.5 * math.pi


# ====================================================================
# Closed forms
# ====================================================================

def j_min(gamma: float) -> float:
    """Weakest coupling that still reaches the pole from the thermal start."""
    return 0.25 * gamma


def is_divergent(J: float, gamma: float) -> bool:
    """True when the uncorrelated pole time is infinite (gamma >= 4J)."""
    return gamma >= 4.0 * J - CRITICAL_TOL


def classify_regime(J: float, gamma: float) -> str:
    """Label the drive/damping balance of the uncorrelated problem.

    "Markovian" when damping dominates (gamma > 4J, pole unreachable),
    "nonMarkovian" when the coupling dominates (gamma < 4J), "critical"
    on the boundary within CRITICAL_TOL.
    """
    edge = 4.0 * J - gamma
    if abs(edge) <= CRITICAL_TOL:
        return "critical"
    return "nonMarkovian" if edge > 0.0 else "Markovian"


def t_min_from_rates(J: float, gamma: float) -> float:
    """Uncorrelated minimal pole time.

    8 * arctan(sqrt((4J + gamma)/(4J - gamma))) / sqrt((4J + gamma)(4J - gamma))
    for gamma < 4J; pi/(2J) in the lossless limit; infinite otherwise.
    """
    if J <= 0.0:
        return math.inf
    if gamma == 0.0:
        return math.pi / (2.0 * J)
    if is_divergent(J, gamma):
        return math.inf
    sp = 4.0 * J + gamma
    sm = 4.0 * J - gamma
    return 8.0 * math.atan(math.sqrt(sp / sm)) / math.sqrt(sp * sm)


def t_min_analytic(params: ModelParams) -> float:
    return t_min_from_rates(params.J, params.gamma)


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
# Initial point and stall condition of the (r, c, theta) flow
# ====================================================================

def initial_spherical(params: ModelParams, xi: float = 0.0) -> tuple[float, float, float]:
    """(r0, c0, theta0) of the thermal-product start with cross coherence
    of magnitude xi >= 0.  theta0 = -arccos(xi / r0): the polarization gap
    puts the state in the southern hemisphere, the coherence lifts it."""
    if xi < 0.0:
        raise ValueError(f"xi is a magnitude, got {xi}")
    a_q, _ = params.qubit_populations
    a_t, _ = params.tls_populations
    d = 0.5 * (a_t - a_q)
    r0 = math.hypot(d, xi)
    c0 = params.eta - d
    theta0 = -math.acos(min(1.0, xi / r0)) if r0 > 0.0 else 0.0
    return r0, c0, theta0


def stall_cosine(params: ModelParams, r: float, c: float) -> float:
    """cos(theta) at which the theta rate vanishes: (4J / gamma) r/(eta - c).
    A stall point exists at the given (r, c) iff this lands in (0, 1]."""
    gam = params.gamma
    if gam <= 0.0:
        return math.inf
    d = params.eta - c
    if d <= 0.0:
        return math.inf
    return 4.0 * params.J * r / (gam * d)


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


@dataclass(frozen=True)
class Threshold:
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


def _stall_curvature(params: ModelParams, r: float, c: float, th: float) -> float:
    """d2(theta)/dt2 on the theta-rate zero set: negative curvature means
    the rate keeps falling (a genuine stall, not a graze)."""
    gam = params.gamma
    d = params.eta - c
    rr = r if r > 1e-300 else 1e-300
    return (0.25 * gam * gam * math.cos(th) * math.sin(th)
            * (r * r - d * d) / (rr * rr))


# ====================================================================
# Exact u == 0 flow of the S1 block
# ====================================================================

#: grid intervals per scan chunk, and the chunk length in units of the
#: lossless pole time: the grid is never coarser than 20 t0 / 512, so the
#: default horizon is one chunk and longer horizons take more chunks
SCAN_INTERVALS = 512
SCAN_CHUNK = 20.0

#: for Omega^2 < 0 the direction settles onto the attracting stall angle;
#: the scan stops once the terms still moving it fall below this share
#: of the settled direction, times (2J/kappa)^2.  Sign changes of the
#: theta rate past that point are roundoff: they appear near a share of
#: 1e-16 (2J/kappa)^2, kappa = sqrt(-Omega^2)
SETTLE_TOL = 1e-12


class _DriftFlow:
    """Closed-form u == 0 flow in s = (w, v, d) = (r sin theta,
    r cos theta, eta - c).  The flow is linear and homogeneous there,

        s' = (-gamma/2 + N) s,  N = [[0, 2J, -gamma/2], [-2J, 0, 0],
                                     [-gamma/2, 0, 0]],

    and N^3 = -Omega^2 N with Omega^2 = 4J^2 - gamma^2/4, so
    s(t) = e^{-gamma t/2} (s0 + S(t) N s0 + C(t) N^2 s0).  theta is
    atan2(w, v), so events only see the direction of s: direction(t)
    returns E s0 + S N s0 + C N^2 s0, the bracket times a positive factor
    chosen to keep every regime free of overflow and cancellation;
    spherical(t) undoes the factor.
    """

    def __init__(self, params: ModelParams, r0: float, c0: float, th0: float):
        self.params = params
        self.a = 2.0 * params.J
        self.b = 0.5 * params.gamma
        self.om2 = self.a * self.a - self.b * self.b
        n = np.array([[0.0, self.a, -self.b],
                      [-self.a, 0.0, 0.0],
                      [-self.b, 0.0, 0.0]])
        s0 = np.array([r0 * math.sin(th0), r0 * math.cos(th0), params.eta - c0])
        self.basis = tuple(tuple(map(float, b)) for b in (s0, n @ s0, n @ n @ s0))
        self.stats = StepStats()

    def _coefficients(self, t, lib):
        """(E, S, C) at t; lib is math for a float, np for an array."""
        if self.om2 > 0.0:
            om = math.sqrt(self.om2)
            half = lib.sin(0.5 * om * t) / om
            return 1.0, lib.sin(om * t) / om, 2.0 * half * half
        if self.om2 < 0.0:
            # sinh and cosh forms times e^{-kappa t}
            k = math.sqrt(-self.om2)
            return (lib.exp(-k * t), -0.5 * lib.expm1(-2.0 * k * t) / k,
                    0.5 * (lib.expm1(-k * t) / k) ** 2)
        return 1.0, t, 0.5 * t * t

    def direction(self, t, lib=math):
        """(w, v, d) up to a positive factor, at a float or array t."""
        e, s, c = self._coefficients(t, lib)
        (w0, v0, d0), (w1, v1, d1), (w2, v2, d2) = self.basis
        return (e * w0 + s * w1 + c * w2, e * v0 + s * v1 + c * v2,
                e * d0 + s * d1 + c * d2)

    def spherical(self, t: float) -> tuple[float, float, float, float]:
        """(r, c, theta, theta rate) at t.  At zero radius theta has no
        meaning; it reads 0, as in reduced.z_to_spherical, and so does its
        rate."""
        self.stats.n_eval += 1
        w, v, d = self.direction(t)
        kappa = math.sqrt(-self.om2) if self.om2 < 0.0 else 0.0
        f = math.exp((kappa - self.b) * t)      # direction -> s
        r2 = w * w + v * v
        return (f * math.hypot(w, v), self.params.eta - f * d,
                math.atan2(w, v), self.rate(w, v, d) / r2 if r2 else 0.0)

    def rate(self, w, v, d):
        """r^2 dtheta/dt up to a positive factor: 2J r^2 - (gamma/2) d v."""
        return self.a * (w * w + v * v) - self.b * d * v

    def _bisect(self, fn, lo: float, hi: float) -> float:
        """First float in (lo, hi] where fn turns non-positive, given
        fn(lo) > 0 >= fn(hi)."""
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return hi
            self.stats.n_eval += 1
            if fn(*self.direction(mid)) > 0.0:
                lo = mid
            else:
                hi = mid

    def _stalls(self, t: float) -> bool:
        """Stall guard of the spherical picture at a theta-rate zero.  The
        curvature test is scale-free, so it reads the direction: the radius
        itself may underflow on long horizons."""
        self.stats.n_eval += 1
        w, v, d = self.direction(t)
        return _stall_curvature(self.params, math.hypot(w, v),
                                self.params.eta - d,
                                math.atan2(w, v)) <= STALL_CURVATURE_TOL

    def _settled(self) -> float:
        """For Omega^2 < 0, when the direction stops moving.  In
        x = e^{-kappa t} it is A0 + A1 x + A2 x^2, so it has settled onto
        A0 once x (|A1| + |A2|) <= SETTLE_TOL (2J/kappa)^2 |A0|.  Infinite
        otherwise."""
        if self.om2 >= 0.0:
            return math.inf
        k = math.sqrt(-self.om2)
        s0, n1, n2 = (np.array(b) for b in self.basis)
        a0 = np.abs(0.5 * n1 / k + 0.5 * n2 / (k * k)).max()
        moving = (np.abs(s0 - n2 / (k * k)).max()
                  + np.abs(0.5 * n2 / (k * k) - 0.5 * n1 / k).max())
        if a0 == 0.0:
            return math.inf
        share = SETTLE_TOL * (self.a / k) ** 2
        return max(0.0, math.log(moving / (share * a0)) / k)

    def first_event(self, t_end: float) -> tuple[str, float]:
        """(status, t_stop): the pole (v falls through 0, hence w > 0), a
        guarded stall (the theta rate falls through 0), or neither by
        t_end.  Each event is bracketed on the grid, then bisected.  A
        start at the centre of the sphere (r = 0 and c = eta, as from a
        cold bath at xi = 0) is a rest point and never reaches the pole."""
        if not any(self.basis[0]):
            return "trapped", t_end
        t_scan = min(t_end, self._settled())
        chunks = max(1, math.ceil(t_scan / (SCAN_CHUNK * self.params.t0)))
        edges = np.linspace(0.0, t_scan, chunks + 1)
        for j in range(chunks):
            ts = np.linspace(edges[j], edges[j + 1], SCAN_INTERVALS + 1)
            event = self._first_in(ts, j * SCAN_INTERVALS)
            if event is not None:
                return event
        self.stats.accepted = chunks * SCAN_INTERVALS
        if self.om2 <= 0.0 and not self._pole_after(t_scan):
            return "trapped", t_end
        return "horizon", t_end

    def _first_in(self, ts: np.ndarray, done: int) -> tuple[str, float] | None:
        """First event on the grid ts, or None; done counts the intervals
        scanned before ts."""
        w, v, d = self.direction(ts, np)
        self.stats.n_eval += ts.size
        rate = self.rate(w, v, d)
        pole = (v[:-1] > 0.0) & (v[1:] <= 0.0)
        stall = (rate[:-1] > 0.0) & (rate[1:] <= 0.0)
        for k in np.flatnonzero(pole | stall):
            self.stats.accepted = done + int(k) + 1
            lo, hi = float(ts[k]), float(ts[k + 1])
            t_pole = (self._bisect(lambda w, v, d: v, lo, hi) if pole[k]
                      else math.inf)
            if stall[k]:
                t_stall = self._bisect(self.rate, lo, hi)
                if t_stall < t_pole and self._stalls(t_stall):
                    return "trapped", t_stall
            if pole[k]:
                return "reached", t_pole
        return None

    def _pole_after(self, t_end: float) -> bool:
        """For Omega^2 <= 0: does v fall through zero after t_end?  v, times
        a positive factor, is a quadratic in x = t (Omega^2 = 0) or in
        x = e^{kappa t} (Omega^2 < 0), so its crossings are its roots."""
        (_, v0, _), (_, p, _), (_, q, _) = self.basis
        if self.om2 == 0.0:
            k, c2, c1, c0 = 0.0, 0.5 * q, p, v0
        else:
            k = math.sqrt(-self.om2)
            c2, c1, c0 = 0.5 * (p + q / k) / k, v0 - q / (k * k), 0.5 * (q / k - p) / k
        return any(x > 0.0 and 2.0 * c2 * x + c1 < 0.0
                   and (math.log(x) / k if k else x) > t_end
                   for x in _real_roots(c2, c1, c0))


def _real_roots(c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c2 x^2 + c1 x + c0."""
    if c2 == 0.0:
        return [-c0 / c1] if c1 != 0.0 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2, c0 / q] if q != 0.0 else [0.0]


# ====================================================================
# Pole-arrival time, classification, purity overshoot
# ====================================================================

@dataclass
class TminResult:
    time: float                 # pole-arrival time; inf if never reached
    status: str                 # "reached" | "trapped" | "horizon"
    t_stop: float               # where the run ended
    r: float
    c: float
    theta: float
    theta_rate: float           # theta rate at the stop point
    stall_blocked: bool         # stall condition already held at t = 0
    stats: StepStats

    @property
    def purity(self) -> float:
        """Qubit purity at the stop point (S1 content only)."""
        z1 = self.c + self.r * math.sin(self.theta)
        return 0.5 + 2.0 * z1 * z1


def t_min_numeric(params: ModelParams, xi: float = 0.0, *,
                  horizon_mult: float = 20.0, rtol: float = 1e-10,
                  atol: float = 1e-10) -> TminResult:
    """Pole-arrival time of the u == 0 flow from the thermal-product start
    with cross coherence xi, from the exact solution of the flow.

    The run ends at the pole ("reached"), at a guarded stall ("trapped"),
    or at horizon_mult * pi/(2J) ("horizon"); the time is infinite in the
    last two cases.  For gamma >= 4J a run that meets neither event by the
    horizon is "trapped" when the closed form shows the pole is never
    reached, and "horizon" when it is reached only later.  The result is
    exact to roundoff, so rtol and atol have nothing to set; nothing in
    the package passes them, and they stay only for outside callers that
    do.  stats counts closed-form evaluations (n_eval) and grid intervals
    scanned (accepted); rejected stays 0.  Work grows with the horizon
    (one 512-interval chunk per 20 t0), except for gamma > 4J, where the
    scan stops once the direction has settled.
    """
    if params.J <= 0.0:
        raise ValueError("t_min_numeric needs J > 0")
    r0, c0, th0 = initial_spherical(params, xi)
    flow = _DriftFlow(params, r0, c0, th0)
    status, t_stop = flow.first_event(horizon_mult * params.t0)
    time = t_stop if status == "reached" else math.inf
    return TminResult(time, status, t_stop, *flow.spherical(t_stop),
                      stall_cosine(params, r0, c0) <= 1.0, flow.stats)


def classify_region(params: ModelParams, xi: float, *,
                    horizon_mult: float = 20.0, rtol: float = 1e-8,
                    atol: float = 1e-8) -> str:
    """Label the initial cross coherence: A (instant stall condition),
    B (stalls en route, or provably never arrives), C (reaches the pole),
    U (arrives only after the horizon).

    The A test is analytic; only non-A cells run the flow.
    """
    if params.gamma == 0.0:
        return "C" if params.J > 0.0 else "U"
    r0, c0, _ = initial_spherical(params, xi)
    if stall_cosine(params, r0, c0) <= 1.0:
        return "A"
    run = t_min_numeric(params, xi, horizon_mult=horizon_mult)
    return {"reached": "C", "trapped": "B", "horizon": "U"}[run.status]


@dataclass
class DeltaPResult:
    delta_p: float              # P(t_pole)/P_S1(t_pole) - 1; NaN if pole missed
    t_pole: float
    p_pole: float               # full purity at the pole event
    p_s1_pole: float            # purity from the S1 block alone at the event
    p_max: float                # largest purity anywhere on [0, t_pole]
    t_max: float                # where that largest value sits
    status: str                 # status of the underlying pole-time run


def delta_p(params: ModelParams, xi: float, mu: float, *,
            horizon_mult: float = 20.0, rtol: float = 1e-10,
            atol: float = 1e-10, n_samples: int = 2001,
            t_pole: float | None = None) -> DeltaPResult:
    """Relative purity gained from the coherence block at pole arrival:
    P(t_pole) / P_S1(t_pole) - 1.

    Exactly zero whenever the S2 content is gone at arrival - identically
    for mu = 0, and for xi = 0 because the coherence oscillator's first
    zero coincides with the uncorrelated pole time.  With correlations the
    pole comes earlier, the coherence has not died yet, and the gain is
    positive and grows with mu.

    The pole time comes from t_min_numeric; the purity trace comes
    from the reduced 8-coordinate run under the resonant drive with the
    cross coherence laid on the in-phase axis (xi real), which realizes
    the same u == 0 geometry.  The overall maximum over [0, t_pole]
    (initial transient included) is reported alongside as p_max, refined
    by a parabolic fit through the best grid sample.
    """
    if t_pole is None:
        lead = t_min_numeric(params, xi, horizon_mult=horizon_mult)
        if lead.status != "reached":
            return DeltaPResult(math.nan, math.inf, math.nan, math.nan,
                                math.nan, math.nan, lead.status)
        t_pole = lead.time
    state = build_initial_state(params, InitialStateSpec(mu_q=mu, xi_re=xi))
    z0 = x_to_z(state.x)
    res = simulate_z(params, z0, (0.0, t_pole), rtol=rtol, atol=atol,
                     dense=True)
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
    zf = res.y_final
    p_pole = float(z_purity(zf))
    p_s1 = float(0.5 + 2.0 * zf[0] ** 2)
    return DeltaPResult(p_pole / p_s1 - 1.0, t_pole, p_pole, p_s1,
                        p_max, t_max, "reached")


# ====================================================================
# Compiling a u-schedule into a detuning drive
# ====================================================================

def delta_from_u(params: ModelParams, u_value: float, u_rate: float,
                 theta: float) -> float:
    """Detuning that realizes a given azimuth-relative control locally:
    delta = du/dt - J tan(theta) sin(u) (accumulated-phase convention)."""
    cap = 0.5 * math.pi - POLE_GUARD
    th = math.copysign(cap, theta) if abs(theta) >= cap else theta
    return u_rate - params.J * math.tan(th) * math.sin(u_value)


def compile_u_control(params: ModelParams, u_times, u_values,
                      xi: float = 0.0, *, rtol: float = 1e-10,
                      atol: float = 1e-10, n_samples: int = 2001):
    """Turn a piecewise-linear u(t) table into a detuning drive.

    Propagates (r, c, theta) under the tabulated u from the thermal-product
    start with cross coherence xi, then samples
    delta(t) = du/dt - J tan(theta(t)) sin(u(t)) and wraps it in a
    TableDrive with the accumulated phase convention (the one u-control
    derives in).  Returns (drive, rct_result).
    """
    u_times = np.asarray(u_times, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if u_times.ndim != 1 or u_times.shape != u_values.shape or len(u_times) < 2:
        raise ValueError("need matching 1-d u tables, length >= 2")
    if np.any(np.diff(u_times) <= 0.0):
        raise ValueError("u table times must be strictly increasing")

    def u_fn(t: float) -> float:
        return float(np.interp(t, u_times, u_values))

    def u_rate(t: float) -> float:
        k = int(np.clip(np.searchsorted(u_times, t, side="right") - 1,
                        0, len(u_times) - 2))
        return float((u_values[k + 1] - u_values[k])
                     / (u_times[k + 1] - u_times[k]))

    r0, c0, th0 = initial_spherical(params, xi)
    rhs = make_rhs_rct(params, u_fn)
    res = integrate(rhs, (float(u_times[0]), float(u_times[-1])),
                    np.array([r0, c0, th0]), rtol=rtol, atol=atol, dense=True)
    ts = np.linspace(float(u_times[0]), float(u_times[-1]), n_samples)
    thetas = res.trajectory(ts)[:, 2]
    deltas = np.array([
        delta_from_u(params, u_fn(t), u_rate(t), th)
        for t, th in zip(ts, thetas)
    ])
    return TableDrive(ts, deltas, mode="accumulated"), res
