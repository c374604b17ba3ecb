"""Closed-form engine of the u == 0 flow: pole times and stall labels.

The locked control u == 0 (drive phase glued to the coherence azimuth)
advances theta at the full rate 2J on top of the drift.  In
s = (r sin theta, r cos theta, eta - c) its flow is linear, so the pole
and the guarded stall are roots of closed-form functions, bracketed on a
grid and bisected; nothing here integrates.

  * t_min_from_rates / t_min_analytic: pole-arrival time from the
    uncorrelated thermal start, finite exactly when gamma < 4J.
  * first_events / t_min_numeric: the pole time of any thermal-product
    start with cross coherence xi, for a batch of cells or for one.
  * region_labels / classify_region label a start
      "A": the stall condition already holds at t = 0 (no flow run),
      "B": theta rate falls through zero en route (stalled short of the
           pole), or the pole is provably never reached,
      "C": reaches the pole,
      "U": reaches the pole only after the horizon.

The module imports only numpy and model, so the pole-time sweeps run
without the integrator stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, StepStats

#: |gamma - 4J| below this counts as sitting on the divergence boundary
CRITICAL_TOL = 1e-12

#: curvature slack when deciding that a theta-rate zero is a genuine stall
STALL_CURVATURE_TOL = 1e-12


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


# ====================================================================
# Initial point and stall condition of the (r, c, theta) flow
# ====================================================================

def _initial_points(a_q, a_t, eta, xi):
    """(r0, c0, theta0) arrays of thermal-product starts, from the ground
    populations a_q, a_t, the bath scale eta and the cross coherence xi,
    one entry per cell."""
    xi = np.asarray(xi, dtype=float)
    if (xi < 0.0).any():
        raise ValueError(f"xi is a magnitude, got {xi[xi < 0.0].flat[0]}")
    d = 0.5 * (a_t - a_q)
    r0 = np.hypot(d, xi)
    c0 = eta - d
    ratio = np.divide(xi, r0, out=np.ones_like(r0), where=r0 > 0.0)
    theta0 = np.where(r0 > 0.0, -np.arccos(np.minimum(1.0, ratio)), 0.0)
    return r0, c0, theta0


def initial_spherical(params: ModelParams, xi: float = 0.0) -> tuple[float, float, float]:
    """(r0, c0, theta0) of the thermal-product start with cross coherence
    of magnitude xi >= 0.  theta0 = -arccos(xi / r0): the polarization gap
    puts the state in the southern hemisphere, the coherence lifts it."""
    a_q, _ = params.qubit_populations
    a_t, _ = params.tls_populations
    return tuple(float(x) for x in
                 _initial_points(a_q, a_t, params.eta, xi))


def initial_direction(params: ModelParams, xi: float = 0.0) -> np.ndarray:
    """Start q0 = (r0 sin theta0, r0 cos theta0, eta - c0) of the
    reduced.make_rhs_s1 flow from the thermal-product start."""
    r0, c0, th0 = initial_spherical(params, xi)
    return np.array([r0 * math.sin(th0), r0 * math.cos(th0),
                     params.eta - c0])


def _stall_cosines(J, gamma, eta, r, c):
    """stall_cosine for arrays of cells: inf where gamma <= 0 or c >= eta."""
    d = np.subtract(eta, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = 4.0 * J * r / (gamma * d)
    return np.where((gamma > 0.0) & (d > 0.0), arg, np.inf)


def stall_cosine(params: ModelParams, r: float, c: float) -> float:
    """cos(theta) at which the theta rate vanishes: (4J / gamma) r/(eta - c).
    A stall point exists at the given (r, c) iff this lands in (0, 1]."""
    return float(_stall_cosines(params.J, params.gamma, params.eta, r, c))


def _stall_curvature(gamma, eta, r, c, th):
    """d2(theta)/dt2 on the theta-rate zero set, for floats or arrays of
    cells: negative curvature means the rate keeps falling (a genuine
    stall, not a graze)."""
    d = eta - c
    rr = np.maximum(r, 1e-300)
    return (0.25 * gamma * gamma * np.cos(th) * np.sin(th)
            * (r * r - d * d) / (rr * rr))


# ====================================================================
# Exact u == 0 flow of the S1 block
# ====================================================================

#: grid intervals per scan chunk, and the chunk length in units of the
#: lossless pole time: the grid is never coarser than 20 t0 / 512, so the
#: default horizon is one chunk and longer horizons take more chunks
SCAN_INTERVALS = 512
SCAN_CHUNK = 20.0

#: grid intervals a scanning cell evaluates at once; a cell leaves the
#: scan with the first block that brackets an event
SCAN_BLOCK = 64

#: most elements in any temporary array of the scan: a block takes at most
#: MAX_WORK // (SCAN_BLOCK + 1) cells at once, and a bisection at most
#: MAX_WORK brackets, so large batches and long horizons cost time, not
#: memory; beyond that the engine keeps a few dozen floats per cell
MAX_WORK = 2 ** 14

#: for Omega^2 < 0 the direction settles onto the attracting stall angle;
#: the scan stops once the terms still moving it fall below this share
#: of the settled direction, times (2J/kappa)^2.  Sign changes of the
#: theta rate past that point are roundoff: they appear near a share of
#: 1e-16 (2J/kappa)^2, kappa = sqrt(-Omega^2)
SETTLE_TOL = 1e-12

#: run statuses by code, and the region label of each
_STATUSES = ("reached", "trapped", "horizon")
_LABELS = np.array(["C", "B", "U"])
_REACHED, _TRAPPED, _HORIZON = range(3)


class _DriftFlow:
    """Closed-form u == 0 flow of a batch of cells, in s = (w, v, d) =
    (r sin theta, r cos theta, eta - c).  The flow of each cell is linear
    and homogeneous there, s' = (-gamma/2 + N) s with N = N(2J) of
    reduced.make_rhs_s1, and N^3 = -Omega^2 N with
    Omega^2 = 4J^2 - gamma^2/4, so
    s(t) = e^{-gamma t/2} (s0 + S(t) N s0 + C(t) N^2 s0).  theta is
    atan2(w, v), so events only see the direction of s:
    _Rows.direction(t) returns E s0 + S N s0 + C N^2 s0, the bracket times
    a positive factor chosen to keep every regime free of overflow and
    cancellation; spherical(t) undoes the factor.

    Every attribute holds one entry per cell (a = 2J, b = gamma/2,
    Omega^2, eta, and the basis s0, N s0, N^2 s0), and every step is
    elementwise, so a cell's result does not depend on the batch it runs
    in.  Methods that work on some cells take them as an index array.
    """

    def __init__(self, J, gamma, eta, r0, c0, th0):
        self.a = 2.0 * J
        self.b = 0.5 * gamma
        self.eta = eta
        self.om2 = self.a * self.a - self.b * self.b
        self.root = np.sqrt(np.abs(self.om2))   # Omega, or kappa
        s0 = np.array([r0 * np.sin(th0), r0 * np.cos(th0), eta - c0])
        n1 = self._apply_n(s0)
        self.basis = np.array([s0, n1, self._apply_n(n1)])  # term, axis, cell
        self.n_eval = np.zeros(self.a.size, dtype=np.int64)

    def _apply_n(self, s):
        w, v, d = s
        return np.array([self.a * v - self.b * d, -self.a * w, -self.b * w])

    def spherical(self, t):
        """(r, c, theta, theta rate) of every cell at its time t.  At zero
        radius theta has no meaning; it reads 0, as in
        reduced.z_to_spherical, and so does its rate."""
        rows = _Rows(self, np.arange(t.size))
        self.n_eval += 1
        w, v, d = rows.direction(t[:, None])
        rate = rows.rate(w, v, d)[:, 0]
        w, v, d = w[:, 0], v[:, 0], d[:, 0]
        kappa = np.where(self.om2 < 0.0, self.root, 0.0)
        f = np.exp((kappa - self.b) * t)        # direction -> s
        r2 = w * w + v * v
        return (f * np.hypot(w, v), self.eta - f * d, np.arctan2(w, v),
                np.divide(rate, r2, out=np.zeros_like(rate), where=r2 != 0.0))

    def _bisect(self, cells, lo, hi, stall):
        """First float in (lo, hi] where v (stall False) or the theta rate
        (stall True) turns non-positive, for every bracket at once, given
        a positive value at lo and a non-positive one at hi.  A bracket
        that has closed keeps its ends while the others go on."""
        rows = _Rows(self, cells)
        with_stalls = stall.any()
        evals = np.zeros(cells.size, dtype=np.int64)
        while True:
            mid = 0.5 * (lo + hi)
            inside = (lo < mid) & (mid < hi)
            if not inside.any():
                np.add.at(self.n_eval, cells, evals)
                return hi
            evals += inside
            if with_stalls:
                w, v, d = rows.direction(mid[:, None])
                f = np.where(stall[:, None], rows.rate(w, v, d), v)[:, 0]
            else:
                f = rows.direction(mid[:, None], axes=(1,))[0][:, 0]
            up = f > 0.0
            lo = np.where(inside & up, mid, lo)
            hi = np.where(inside & ~up, mid, hi)

    def _stalls(self, cells, t):
        """Stall guard of the spherical picture at theta-rate zeros.  The
        curvature test is scale-free, so it reads the direction: the
        radius itself may underflow on long horizons."""
        self.n_eval[cells] += 1
        w, v, d = (x[:, 0] for x in _Rows(self, cells).direction(t[:, None]))
        return _stall_curvature(2.0 * self.b[cells], self.eta[cells],
                                np.hypot(w, v), self.eta[cells] - d,
                                np.arctan2(w, v)) <= STALL_CURVATURE_TOL

    def _settled(self):
        """For Omega^2 < 0, when the direction stops moving.  In
        x = e^{-kappa t} it is A0 + A1 x + A2 x^2, so it has settled onto
        A0 once x (|A1| + |A2|) <= SETTLE_TOL (2J/kappa)^2 |A0|.  Infinite
        otherwise."""
        out = np.full(self.om2.size, np.inf)
        hyp = self.om2 < 0.0
        k = self.root[hyp]
        s0, n1, n2 = self.basis[:, :, hyp]
        a0 = np.abs(0.5 * n1 / k + 0.5 * n2 / (k * k)).max(axis=0)
        moving = (np.abs(s0 - n2 / (k * k)).max(axis=0)
                  + np.abs(0.5 * n2 / (k * k) - 0.5 * n1 / k).max(axis=0))
        share = SETTLE_TOL * (self.a[hyp] / k) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            when = np.maximum(0.0, np.log(moving / (share * a0)) / k)
        out[hyp] = np.where(a0 == 0.0, np.inf, when)
        return out

    def events(self, t_end, t0):
        """(status, t_stop, intervals scanned) of every cell: the pole (v
        falls through 0, hence w > 0), a guarded stall (the theta rate falls
        through 0), or neither by t_end.  The grid of each cell is
        np.linspace(0, t_scan, 513) per chunk; it is scanned in blocks, and
        every block's brackets are bisected together.  A start at the
        centre of the sphere (r = 0 and c = eta, as from a cold bath at
        xi = 0) is a rest point and never reaches the pole."""
        n = t_end.size
        status = np.full(n, _HORIZON)
        t_stop = t_end.copy()
        rest = ~self.basis[0].any(axis=0)
        status[rest] = _TRAPPED
        t_scan = np.minimum(t_end, self._settled())
        chunks = np.maximum(1.0, np.ceil(t_scan / (SCAN_CHUNK * t0)))
        self._grid = (t_scan, chunks, t_scan / chunks)
        total = chunks.astype(np.int64) * SCAN_INTERVALS
        accepted = np.zeros(n, dtype=np.int64)
        pos = np.zeros(n, dtype=np.int64)         # next interval to scan
        scanning = ~rest
        exhausted = np.zeros(n, dtype=bool)
        pending = []
        while True:
            cells = np.flatnonzero(scanning)[:MAX_WORK // (SCAN_BLOCK + 1)]
            if cells.size:
                found = self._scan_block(cells, pos, total)
                pending.append(found)
                scanning[found[0]] = False
                pos[cells] += SCAN_BLOCK
                done = cells[scanning[cells] & (pos[cells] >= total[cells])]
                scanning[done] = False
                exhausted[done] = True
                continue
            if not pending:
                break
            # every cell has a bracket or has run out of grid: bisect them
            found = [np.concatenate(x) for x in zip(*pending)]
            pending = []
            for start in range(0, found[0].size, MAX_WORK // 2):
                cells, interval, lo, hi, pole, stall = (
                    x[start:start + MAX_WORK // 2] for x in found)
                accepted[cells] = interval + 1
                event = self._decide(cells, lo, hi, pole, stall, status,
                                     t_stop)
                pos[cells[~event]] = interval[~event] + 1
                scanning[cells[~event]] = True
        accepted[exhausted] = total[exhausted]
        for i in np.flatnonzero(exhausted & (self.om2 <= 0.0)):
            if not self._pole_after(i, float(t_scan[i])):
                status[i] = _TRAPPED
        return status, t_stop, accepted

    def _grid_times(self, cells, q):
        """Times of the grid points q of each cell: point k of chunk j is
        k * step_j + edge_j, as np.linspace computes it, and a chunk's
        last point is the next chunk's edge."""
        t_scan, chunks, width = (x[cells, None] for x in self._grid)
        j, k = np.divmod(q, SCAN_INTERVALS)
        e0 = np.where(j >= chunks, t_scan, j * width)
        e1 = np.where(j + 1 >= chunks, t_scan, (j + 1) * width)
        return k * ((e1 - e0) / SCAN_INTERVALS) + e0

    def _scan_block(self, cells, pos, total):
        """One block of grid intervals for each cell: (cells that bracket
        an event, the first such interval, its ends, and whether it
        brackets the pole and a stall)."""
        q = np.minimum(pos[cells, None] + np.arange(SCAN_BLOCK + 1),
                       total[cells, None])
        t = self._grid_times(cells, q)
        self.n_eval[cells] += SCAN_BLOCK + 1
        rows = _Rows(self, cells)
        w, v, d = rows.direction(t)
        rate = rows.rate(w, v, d)
        pole = (v[:, :-1] > 0.0) & (v[:, 1:] <= 0.0)
        stall = (rate[:, :-1] > 0.0) & (rate[:, 1:] <= 0.0)
        hit = pole | stall
        k = hit.argmax(axis=1)
        rows = np.flatnonzero(hit[np.arange(cells.size), k])
        k = k[rows]
        return (cells[rows], pos[cells[rows]] + k, t[rows, k], t[rows, k + 1],
                pole[rows, k], stall[rows, k])

    def _decide(self, cells, lo, hi, pole, stall, status, t_stop):
        """Bisect the brackets of every cell together and record the
        events; returns which cells got one.  A stall counts when it comes
        before the pole in its interval and passes the guard."""
        which = np.concatenate([np.flatnonzero(pole), np.flatnonzero(stall)])
        is_stall = np.arange(which.size) >= np.count_nonzero(pole)
        roots = self._bisect(cells[which], lo[which], hi[which], is_stall)
        t_pole = np.full(cells.size, np.inf)
        t_pole[pole] = roots[~is_stall]
        t_stall = np.full(cells.size, np.inf)
        t_stall[stall] = roots[is_stall]
        trapped = stall & (t_stall < t_pole)
        trapped[trapped] = self._stalls(cells[trapped], t_stall[trapped])
        reached = pole & ~trapped
        status[cells[trapped]] = _TRAPPED
        t_stop[cells[trapped]] = t_stall[trapped]
        status[cells[reached]] = _REACHED
        t_stop[cells[reached]] = t_pole[reached]
        return trapped | reached

    def _pole_after(self, i: int, t_end: float) -> bool:
        """For Omega^2 <= 0: does v of cell i fall through zero after
        t_end?  v, times a positive factor, is a quadratic in x = t
        (Omega^2 = 0) or in x = e^{kappa t} (Omega^2 < 0), so its crossings
        are its roots."""
        v0, p, q = (float(x) for x in self.basis[:, 1, i])
        if self.om2[i] == 0.0:
            k, c2, c1, c0 = 0.0, 0.5 * q, p, v0
        else:
            k = float(self.root[i])
            c2, c1, c0 = 0.5 * (p + q / k) / k, v0 - q / (k * k), 0.5 * (q / k - p) / k
        return any(x > 0.0 and 2.0 * c2 * x + c1 < 0.0
                   and (math.log(x) / k if k else x) > t_end
                   for x in _real_roots(c2, c1, c0))


class _Rows:
    """The constants of some cells of a _DriftFlow, gathered once, one row
    per cell, for evaluation at per-row times."""

    def __init__(self, flow: _DriftFlow, cells):
        om2 = flow.om2[cells]
        root = flow.root[cells, None]
        self.trig = np.flatnonzero(om2 > 0.0)
        self.hyp = np.flatnonzero(om2 < 0.0)
        self.om = root[self.trig]
        self.kappa = root[self.hyp]
        self.basis = flow.basis[:, :, cells, None]
        self.a = flow.a[cells, None]
        self.b = flow.b[cells, None]

    def direction(self, t, axes=(0, 1, 2)):
        """(w, v, d) up to a positive factor at the times t, shaped
        (rows, times), or the given axes of it."""
        e = np.ones_like(t)
        s = t.copy()
        c = 0.5 * t * t
        if self.trig.size:
            om, tt = self.om, t[self.trig]
            half = np.sin(0.5 * om * tt) / om
            s[self.trig] = np.sin(om * tt) / om
            c[self.trig] = 2.0 * half * half
        if self.hyp.size:
            # sinh and cosh forms times e^{-kappa t}
            k, tt = self.kappa, t[self.hyp]
            e[self.hyp] = np.exp(-k * tt)
            s[self.hyp] = -0.5 * np.expm1(-2.0 * k * tt) / k
            c[self.hyp] = 0.5 * (np.expm1(-k * tt) / k) ** 2
        b = self.basis
        return tuple(e * b[0, j] + s * b[1, j] + c * b[2, j] for j in axes)

    def rate(self, w, v, d):
        """r^2 dtheta/dt up to a positive factor: 2J r^2 - (gamma/2) d v."""
        return self.a * (w * w + v * v) - self.b * d * v


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
# Pole-arrival time and classification
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


class _Cells(NamedTuple):
    """Per-cell arrays of a batch: model constants and thermal start."""

    J: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    t0: np.ndarray
    r0: np.ndarray
    c0: np.ndarray
    th0: np.ndarray

    @classmethod
    def of(cls, params_seq, xis) -> "_Cells":
        """The rates of each distinct parameter set are computed once: a
        sweep row shares one."""
        known: dict[ModelParams, tuple] = {}
        for p in params_seq:
            if p not in known:
                known[p] = (p.J, p.gamma, p.eta, p.t0,
                            p.qubit_populations[0], p.tls_populations[0])
        cols = np.array([known[p] for p in params_seq],
                        dtype=float).reshape(-1, 6).T
        J, gamma, eta, t0, a_q, a_t = cols
        return cls(J, gamma, eta, t0,
                   *_initial_points(a_q, a_t, eta, np.asarray(xis, float)))

    def take(self, rows) -> "_Cells":
        return _Cells(*(x[rows] for x in self))

    def blocked(self) -> np.ndarray:
        """The stall condition holds at t = 0 (region A)."""
        return _stall_cosines(self.J, self.gamma, self.eta, self.r0,
                              self.c0) <= 1.0


def _run_flows(cells: _Cells, horizon_mult: float):
    """The u == 0 flow of every cell: (status, t_stop, r, c, theta,
    theta rate, intervals scanned, evaluations), one entry per cell."""
    if (cells.J <= 0.0).any():
        raise ValueError("t_min_numeric needs J > 0")
    flow = _DriftFlow(cells.J, cells.gamma, cells.eta, cells.r0, cells.c0,
                      cells.th0)
    status, t_stop, accepted = flow.events(horizon_mult * cells.t0, cells.t0)
    return (status, t_stop, *flow.spherical(t_stop), accepted, flow.n_eval)


def first_events(params_seq, xis, horizon_mult: float = 20.0
                 ) -> list[TminResult]:
    """t_min_numeric over a batch of cells, cell k at params_seq[k] and
    cross coherence xis[k]: one array-valued engine for the whole batch,
    with the same result for each cell as a batch of one."""
    cells = _Cells.of(params_seq, xis)
    status, t_stop, r, c, th, rate, accepted, n_eval = _run_flows(
        cells, horizon_mult)
    blocked = cells.blocked()
    return [TminResult(t if s == _REACHED else math.inf, _STATUSES[s], t,
                       *row, StepStats(accepted=a, n_eval=e))
            for s, t, *row, a, e in zip(
                status.tolist(), t_stop.tolist(), r.tolist(), c.tolist(),
                th.tolist(), rate.tolist(), blocked.tolist(),
                accepted.tolist(), n_eval.tolist())]


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
    scan stops once the direction has settled.  This is first_events on
    a batch of one.
    """
    return first_events([params], [xi], horizon_mult)[0]


def region_labels(params_seq, xis, horizon_mult: float = 20.0) -> list[str]:
    """classify_region over a batch of cells; the cells that need the flow
    run it as one batch."""
    cells = _Cells.of(params_seq, xis)
    labels = np.where(cells.gamma == 0.0,
                      np.where(cells.J > 0.0, "C", "U"), "A")
    run = np.flatnonzero((cells.gamma != 0.0) & ~cells.blocked())
    status = _run_flows(cells.take(run), horizon_mult)[0]
    labels[run] = _LABELS[status.astype(int)]
    return labels.tolist()


def classify_region(params: ModelParams, xi: float, *,
                    horizon_mult: float = 20.0) -> str:
    """Label the initial cross coherence: A (instant stall condition),
    B (stalls en route, or provably never arrives), C (reaches the pole),
    U (arrives only after the horizon).

    The A test is analytic; only non-A cells run the flow.  This is
    region_labels on a batch of one.
    """
    return region_labels([params], [xi], horizon_mult)[0]
