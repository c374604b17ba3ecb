"""Closed-form engine of the u == 0 flow: pole times and stall labels.

The locked control u == 0 (drive phase glued to the coherence azimuth)
advances theta at the full rate 2J on top of the drift.  In
s = (r sin theta, r cos theta, eta - c) its flow is linear, and every
cell starts at s0 = (-pol_gap, xi, pol_gap) (initial_direction), with no
angle.  In one variable that runs with t the pole and the guarded stall
are roots of a quadratic and a quartic: each cell's roots are solved in
closed form or as companion-matrix eigenvalues and bracketed between
their midpoints; nothing here integrates and nothing scans a grid.  Only
first_events bisects every bracket to the float; region_labels, which
reads statuses alone, bisects the stall brackets and only those pole
brackets that a stall bracket shares.

  * t_min_from_rates: pole-arrival time from the uncorrelated thermal
    start, finite exactly when gamma < 4J.
  * first_events / t_min_numeric: the pole time of any thermal-product
    start with cross coherence xi, for a grid of cells or for one.
  * region_labels labels a grid of starts
      "A": the stall condition already holds at t = 0 (no flow run),
      "B": theta rate falls through zero en route (stalled short of the
           pole), or the pole is provably never reached,
      "C": reaches the pole,
      "U": reaches the pole only after the horizon.

The module imports only numpy and model, so the pole-time sweeps run
without the integrator stack.  It derives no thermal number: the rates,
eta, t0 and the start's polarization gap pol_gap are ModelParams
attributes.  Spherical coordinates are read only on the way out
(initial_spherical, TminResult, stall_cosine).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .model import ModelParams, StepStats

#: relative width of the band below gamma = 4J that counts as sitting on
#: the divergence boundary: t/t0 depends on gamma/J alone, so the band
#: scales with the rates
CRITICAL_TOL = 1e-12

#: curvature slack when deciding that a theta-rate zero is a genuine
#: stall, in units of gamma^2: the curvature scales as gamma^2, so the
#: slack scales with the rates
STALL_CURVATURE_TOL = 1e-12


# ====================================================================
# Closed forms
# ====================================================================

def j_min(gamma: float) -> float:
    """Weakest coupling that still reaches the pole from the thermal start."""
    return 0.25 * gamma


def is_divergent(J: float, gamma: float) -> bool:
    """True when the uncorrelated pole time is infinite (gamma >= 4J)."""
    return gamma >= 4.0 * J * (1.0 - CRITICAL_TOL)


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


# ====================================================================
# Start and stall condition
# ====================================================================

def initial_direction(pol_gap, xi=0.0) -> np.ndarray:
    """Start s0 = (-pol_gap, xi, pol_gap) of the u == 0 flow, in
    s = (r sin theta, r cos theta, eta - c), from the thermal-product
    start with polarization gap pol_gap = (a_t - a_q)/2 and cross
    coherence of magnitude xi >= 0: the gap puts the state in the
    southern hemisphere, the coherence lifts it.  The engine's only
    start, and the q0 of reduced.make_rhs_s1.  pol_gap and xi broadcast:
    arrays of them give one column per cell."""
    pol_gap, xi = np.broadcast_arrays(np.asarray(pol_gap, dtype=float),
                                      np.asarray(xi, dtype=float))
    if (xi < 0.0).any():
        raise ValueError(f"xi is a magnitude, got {xi[xi < 0.0].flat[0]}")
    return np.array([-pol_gap, xi, pol_gap])


def initial_spherical(params: ModelParams, xi: float = 0.0) -> tuple[float, float, float]:
    """(r0, c0, theta0) of the thermal-product start with cross coherence
    of magnitude xi >= 0, read off its direction: r0 = hypot(pol_gap, xi),
    c0 = eta - pol_gap and theta0 = -atan2(pol_gap, xi)."""
    w, v, d = initial_direction(params.pol_gap, xi)
    return (float(np.hypot(w, v)), float(params.eta - d),
            float(np.arctan2(w, v)))


def _stall_cosines(J, gamma, eta, r, c):
    """stall_cosine for arrays of cells: inf where gamma <= 0 or c >= eta."""
    d = np.subtract(eta, c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arg = 4.0 * J * r / (gamma * d)
    return np.where((gamma > 0.0) & (d > 0.0), arg, np.inf)


def stall_cosine(params: ModelParams, r: float, c: float) -> float:
    """cos(theta) at which the theta rate vanishes: (4J / gamma) r/(eta - c).
    A stall point exists at the given (r, c) iff this lands in (0, 1]."""
    return float(_stall_cosines(params.J, params.gamma, params.eta, r, c))


def _stall_curvature(gamma, w, v, d):
    """d2(theta)/dt2 on the theta-rate zero set, for floats or arrays of
    cells: (gamma^2/4) w v (w^2 + v^2 - d^2)/(w^2 + v^2)^2 at any positive
    multiple of the direction (w, v, d); negative means the rate keeps
    falling (a genuine stall, not a graze).  w^2 + v^2 is floored at the
    smallest normal float and w v is divided first, so a zero radius
    reads 0, with no division by zero, whatever d is."""
    r2 = w * w + v * v
    floor = np.maximum(r2, sys.float_info.min)
    return 0.25 * gamma * gamma * (w * v / floor * (r2 - d * d) / floor)


# ====================================================================
# Exact u == 0 flow of the S1 block
# ====================================================================

#: run statuses by code, and the region label of each
_STATUSES = ("reached", "trapped", "horizon")
_LABELS = np.array(["C", "B", "U"])
_REACHED, _TRAPPED, _HORIZON = range(3)


class _DriftFlow:
    """Closed-form u == 0 flow of a batch of cells, in s = (w, v, d) =
    (r sin theta, r cos theta, eta - c), from the starts s0 (one column
    per cell, as initial_direction gives them).  The flow of each cell is
    linear and homogeneous there, s' = (-gamma/2 + N) s with N = N(2J) of
    reduced.make_rhs_s1, and N^3 = -Omega^2 N with
    Omega^2 = 4J^2 - gamma^2/4, so
    s(t) = e^{-gamma t/2} (s0 + S(t) N s0 + C(t) N^2 s0).  theta is
    atan2(w, v), so events only see the direction of s:
    _Rows.direction(t) returns E s0 + S N s0 + C N^2 s0, the bracket times
    a positive factor chosen to keep every regime free of overflow and
    cancellation; spherical(t) undoes the factor.

    Up to a positive factor the direction is a quadratic in one x that
    runs monotonically with t: tan(Omega t / 2) for Omega^2 > 0 (the
    direction is periodic), e^{-kappa t} with kappa^2 = -Omega^2, or t
    for Omega^2 = 0.  So v is a quadratic in x and the theta-rate form
    2J r^2 - (gamma/2) d v a quartic, and both events are their roots.

    Every attribute holds one entry per cell (a = 2J, b = gamma/2,
    Omega^2, eta, and the basis s0, N s0, N^2 s0), and every step is
    elementwise, so a cell's result does not depend on the batch it runs
    in.  Methods that work on some cells take them as an index array.
    """

    def __init__(self, J, gamma, eta, s0):
        self.a = 2.0 * J
        self.b = 0.5 * gamma
        self.eta = eta
        self.om2 = (self.a - self.b) * (self.a + self.b)    # no cancellation
        self.root = np.sqrt(np.abs(self.om2))   # Omega, or kappa
        self.trig = self.om2 > 0.0
        self.hyp = self.om2 < 0.0
        n1 = self._apply_n(s0)
        self.basis = np.array([s0, n1, self._apply_n(n1)])  # term, axis, cell
        self.n_eval = np.zeros(self.a.size, dtype=np.int64)

    def _apply_n(self, s):
        w, v, d = s
        return np.array([self.a * v - self.b * d, -self.a * w, -self.b * w])

    def spherical(self, t):
        """(r, c, theta) of every cell at its time t.  At zero radius
        theta has no meaning; it reads 0."""
        self.n_eval += 1
        w, v, d = (x[:, 0] for x in
                   _Rows(self, np.arange(t.size)).direction(t[:, None]))
        kappa = np.where(self.hyp, self.root, 0.0)
        f = np.exp((kappa - self.b) * t)        # direction -> s
        return f * np.hypot(w, v), self.eta - f * d, np.arctan2(w, v)

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
        radius itself may underflow on long horizons.  The slack is
        STALL_CURVATURE_TOL gamma^2, as the curvature scales."""
        self.n_eval[cells] += 1
        w, v, d = (x[:, 0] for x in _Rows(self, cells).direction(t[:, None]))
        gamma = 2.0 * self.b[cells]
        return (_stall_curvature(gamma, w, v, d)
                <= STALL_CURVATURE_TOL * gamma * gamma)

    def _polynomials(self):
        """Coefficients, lowest power first, of v (3) and of the theta-rate
        form (5) of every cell as polynomials in its x, up to a positive
        factor.  The rate vanishes on eigenvectors of N, and where the
        direction is one it is set to exactly 0: at x = 0 and x = 1/0 for
        Omega^2 < 0 (the rate is kept divided by x), at t = 1/0 for
        Omega^2 = 0.  A roundoff remainder there would put spurious roots
        where the direction settles onto the attracting stall angle."""
        s0, n1, n2 = self.basis
        om = self.root
        with np.errstate(divide="ignore", invalid="ignore"):
            trig = (s0, 2.0 * n1 / om, s0 + 2.0 * n2 / (om * om))
            hyp = (0.5 * n1 / om + 0.5 * n2 / (om * om), s0 - n2 / (om * om),
                   0.5 * n2 / (om * om) - 0.5 * n1 / om)
        p = [np.where(self.trig, x, np.where(self.hyp, y, z))
             for x, y, z in zip(trig, hyp, (s0, n1, 0.5 * n2))]

        def form(u, s):         # the rate as a symmetric bilinear form
            return (self.a * (u[0] * s[0] + u[1] * s[1])
                    - 0.5 * self.b * (u[2] * s[1] + s[2] * u[1]))

        rate = np.array([form(p[0], p[0]), 2.0 * form(p[0], p[1]),
                         2.0 * form(p[0], p[2]) + form(p[1], p[1]),
                         2.0 * form(p[1], p[2]), form(p[2], p[2])])
        rate[4, ~self.trig] = 0.0
        rate[0, self.hyp] = 0.0
        rate[:, self.hyp] = np.roll(rate[:, self.hyp], -1, axis=0)
        return np.array([x[1] for x in p]), rate

    def _roots(self, v, rate):
        """Six x per cell: the roots of v, in closed form, and of the
        rate, as eigenvalues of the companion matrix in x or in 1/x,
        whichever puts the larger end coefficient in the lead.  A complex
        root stands for its real part, which still samples the dip
        between a near-double pair.  A root too large for a float (v's
        lead coefficient is -xi at kappa = 0, so a subnormal xi) reads as
        the largest float, as an infinite one does."""
        disc = v[1] * v[1] - 4.0 * v[2] * v[0]
        q = -0.5 * (v[1] + np.copysign(np.sqrt(np.abs(disc)), v[1]))
        flip = np.abs(rate[4]) < np.abs(rate[0])
        c = np.where(flip, rate[::-1], rate)
        comp = np.zeros((c.shape[1], 4, 4))
        comp[:, 1:, :3] = np.eye(3)
        comp[:, :, 3] = -(c[:4] / np.where(c[4] == 0.0, 1.0, c[4])).T
        z = np.linalg.eigvals(comp).real.T
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = np.array([np.where(disc < 0.0, -0.5 * v[1] / v[2], q / v[2]),
                          np.where(disc < 0.0, -0.5 * v[1] / v[2], v[0] / q),
                          *np.where(flip, 1.0 / z, z)])
        return np.nan_to_num(x).T

    def _to_u(self, x):
        """x as the variable u, running with t, that midpoints are taken
        in, within the window: Omega t / 2 in [0, pi), -x in [-1, 0]
        (midpoints in x keep a bracket out of the settled tail), or
        arctan t in [0, pi/2]."""
        ang = np.arctan(x) % math.pi
        return np.where(self.hyp[:, None], np.clip(-x, -1.0, 0.0),
                        np.where(self.trig[:, None], ang,
                                 np.minimum(ang, 0.5 * math.pi)))

    def _times(self, u):
        om = self.root[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.trig[:, None], 2.0 * u / om,
                            np.where(self.hyp[:, None], -np.log(-u) / om,
                                     np.tan(u)))

    def _signs(self, v, rate, t):
        """v and the rate at the times t, each up to a positive factor:
        forms homogeneous of degree 2 and 4 in (p, q) with x = p / q."""
        om = self.root[:, None]
        with np.errstate(invalid="ignore"):
            ang = np.where(self.trig[:, None], 0.5 * om * t, np.arctan(t))
            x = np.exp(-om * t)
        hyp = self.hyp[:, None]
        p, q = np.where(hyp, x, np.sin(ang)), np.where(hyp, 1.0, np.cos(ang))
        return tuple(sum(c[:, None] * p ** k * q ** (len(f) - 1 - k)
                         for k, c in enumerate(f)) for f in (v, rate))

    def _brackets(self, t_end):
        """Every cell's event brackets: (t, pole, stall, late).

        The sorted roots of v and of the rate split the window (one period
        for Omega^2 > 0, all time otherwise) into pieces that each hold
        one root.  The midpoints between neighbouring roots, 0, t_end and
        the window's end are evaluated on the polynomials, sorted into the
        rows of t; a piece k, from t[:, k] to t[:, k + 1], whose ends fall
        from positive to non-positive brackets a crossing.  pole and stall
        are (cells, pieces) index pairs: each cell's first pole bracket by
        t_end and its stall brackets up to that piece.  late flags the
        cells with a pole bracket past t_end."""
        n = t_end.size
        v, rate = self._polynomials()
        u = np.sort(self._to_u(self._roots(v, rate)), axis=1)
        with np.errstate(divide="ignore"):
            t_far = np.where(self.trig, 2.0 * math.pi / self.root, np.inf)
        t = np.sort(np.column_stack([
            np.zeros(n), self._times(0.5 * (u[:, 1:] + u[:, :-1])),
            t_far, np.minimum(t_end, t_far)]), axis=1)
        self.n_eval += t.shape[1]
        fv, fr = self._signs(v, rate, t)
        pole = (fv[:, :-1] > 0.0) & (fv[:, 1:] <= 0.0)
        stall = (fr[:, :-1] > 0.0) & (fr[:, 1:] <= 0.0)
        window = t[:, 1:] <= t_end[:, None]
        late = (pole & ~window).any(axis=1)
        pole &= window
        piece = np.arange(pole.shape[1])
        first = np.where(pole.any(axis=1), pole.argmax(axis=1), piece.size)
        pole &= piece == first[:, None]
        stall &= window & (piece <= first[:, None])
        return t, np.nonzero(pole), np.nonzero(stall), late

    def _refine(self, t, pole, stall):
        """Bisect the given pole brackets and the stall brackets together:
        (t_pole, t_stall, cells bisected), t_pole inf where no pole bracket
        is given and t_stall the first guarded stall before the pole, inf
        if none."""
        (pc, pk), (sc, sk) = pole, stall
        cells, k = np.concatenate([pc, sc]), np.concatenate([pk, sk])
        is_stall = np.arange(cells.size) >= pc.size
        roots = self._bisect(cells, t[cells, k], t[cells, k + 1], is_stall)
        t_pole = np.full(t.shape[0], np.inf)
        t_pole[pc] = roots[~is_stall]
        t_s = roots[is_stall]
        held = t_s < t_pole[sc]
        held[held] = self._stalls(sc[held], t_s[held])
        t_stall = np.full(t.shape[0], np.inf)
        np.minimum.at(t_stall, sc[held], t_s[held])
        return t_pole, t_stall, cells

    def _status(self, pole, t_stall, late):
        """Run statuses from the cells with a pole bracket and the first
        guarded stalls.  For Omega^2 <= 0 a run with no event by t_end is
        "trapped" unless a pole bracket lies past t_end.  A start at the
        centre of the sphere (r = 0 and c = eta, as from a cold bath at
        xi = 0) is a rest point and never reaches the pole."""
        status = np.full(t_stall.size, _HORIZON)
        status[pole[0]] = _REACHED
        status[np.isfinite(t_stall)] = _TRAPPED
        rest = ~self.basis[0].any(axis=0)
        status[(status == _HORIZON) & (rest | ~self.trig & ~late)] = _TRAPPED
        return status

    def events(self, t_end):
        """(status, t_stop, roots refined) of every cell: the pole (v falls
        through 0, hence w > 0), a guarded stall (the theta rate falls
        through 0), or neither by t_end.  Every cell's first pole bracket
        and its stall brackets up to it are bisected."""
        t, pole, stall, late = self._brackets(t_end)
        t_pole, t_stall, cells = self._refine(t, pole, stall)
        t_stop = np.minimum(t_end, np.minimum(t_pole, t_stall))
        return (self._status(pole, t_stall, late), t_stop,
                np.bincount(cells, minlength=t_end.size))

    def statuses(self, t_end):
        """The status of every cell, as events gives it, from fewer
        bisections: only the stall brackets, and the pole bracket of a
        cell with a stall bracket in the same piece.  A stall bracket in
        an earlier piece ends at or before the pole piece's start, and the
        pole lies strictly after that start (v is positive there and
        non-positive at the piece's end), so that stall comes first."""
        t, pole, stall, late = self._brackets(t_end)
        (pc, pk), (sc, sk) = pole, stall
        first = np.full(t_end.size, -1)
        first[pc] = pk
        shared = np.isin(pc, sc[sk == first[sc]])
        t_stall = self._refine(t, (pc[shared], pk[shared]), stall)[1]
        return self._status(pole, t_stall, late)


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


# ====================================================================
# Pole-arrival time and classification
# ====================================================================

class TminResult(NamedTuple):
    time: float                 # pole-arrival time; inf if never reached
    status: str                 # "reached" | "trapped" | "horizon"
    t_stop: float               # where the run ended
    r: float
    c: float
    theta: float
    stats: StepStats

    @property
    def purity(self) -> float:
        """Qubit purity at the stop point (S1 content only)."""
        z1 = self.c + self.r * math.sin(self.theta)
        return 0.5 + 2.0 * z1 * z1


class _Cells(NamedTuple):
    """Per-cell arrays of a batch: model constants and the thermal start
    s0 (initial_direction, one column per cell)."""

    J: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    t0: np.ndarray
    s0: np.ndarray

    @classmethod
    def of(cls, params_seq, xis) -> "_Cells":
        """The cells of a grid, laid out as first_events takes it: each
        object's constants are read once and repeated along its row."""
        xis = np.asarray(xis, dtype=float)
        if xis.ndim == 1:
            xis = xis[:, None]
        consts = np.array([(p.J, p.gamma, p.eta, p.t0, p.pol_gap)
                           for p in params_seq], dtype=float).reshape(-1, 5)
        if xis.ndim != 2 or len(xis) != len(consts):
            raise ValueError(f"xis of shape {xis.shape} does not give one "
                             f"row to each of {len(consts)} parameter objects")
        J, gamma, eta, t0, pol_gap = np.repeat(consts, xis.shape[1], axis=0).T
        return cls(J, gamma, eta, t0, initial_direction(pol_gap, xis.ravel()))

    def take(self, rows) -> "_Cells":
        return _Cells(*(x[..., rows] for x in self))


def _flow(cells: _Cells) -> _DriftFlow:
    """The u == 0 flow of every cell."""
    return _DriftFlow(cells.J, cells.gamma, cells.eta, cells.s0)


def first_events(params_seq, xis, horizon_mult: float = 20.0
                 ) -> list[TminResult]:
    """t_min_numeric over a grid of cells, in row-major order: row k at
    params_seq[k], its cells at the cross coherences xis[k] (a 1-D xis
    gives each row one cell).  One array-valued engine runs the whole
    grid, with the same result for each cell as a batch of one."""
    cells = _Cells.of(params_seq, xis)
    if (cells.J <= 0.0).any():
        raise ValueError("t_min_numeric needs J > 0")
    flow = _flow(cells)
    status, t_stop, accepted = flow.events(horizon_mult * cells.t0)
    r, c, th = flow.spherical(t_stop)
    return [TminResult(t if s == _REACHED else math.inf, _STATUSES[s], t,
                       *row, StepStats(accepted=a, n_eval=e))
            for s, t, *row, a, e in zip(
                status.tolist(), t_stop.tolist(), r.tolist(), c.tolist(),
                th.tolist(), accepted.tolist(), flow.n_eval.tolist())]


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
    do.  stats counts closed-form evaluations (n_eval: eight sample
    points, each bisection step, the stall guard and the stop point) and
    the roots refined by bisection (accepted); rejected stays 0.  Neither
    scales with the horizon: the roots cover one period of the direction
    (gamma < 4J) or all time, a bisection takes at most about 60 steps
    to the float, and a horizon only shortens a bracket it cuts.  This
    is first_events on a batch of one.
    """
    return first_events([params], [xi], horizon_mult)[0]


#: cells region_labels runs at a time: the engine's working set is about
#: 1 KB per cell, so a block holds it near 16 MB on any grid
REGION_BLOCK = 16384


def region_labels(params_seq, xis, horizon_mult: float = 20.0) -> list[str]:
    """Label the start of each cell of a grid, laid out as first_events
    takes it: A (instant stall condition), B (stalls en route, or provably
    never arrives), C (reaches the pole), U (arrives only after the
    horizon).  The A test is analytic; the cells that need the flow run
    it in blocks of REGION_BLOCK, finding statuses only
    (_DriftFlow.statuses), and each gets the label of its own batch of one."""
    cells = _Cells.of(params_seq, xis)
    labels = np.where(cells.gamma == 0.0,
                      np.where(cells.J > 0.0, "C", "U"), "A")
    # region A: the stall condition holds at t = 0, read off
    # initial_spherical's r0 and c0 as stall_cosine reads them
    w, v, d = cells.s0
    blocked = _stall_cosines(cells.J, cells.gamma, cells.eta, np.hypot(w, v),
                             cells.eta - d) <= 1.0
    run = np.flatnonzero((cells.gamma != 0.0) & ~blocked)
    for start in range(0, run.size, REGION_BLOCK):
        part = run[start:start + REGION_BLOCK]
        block = cells.take(part)
        labels[part] = _LABELS[_flow(block).statuses(horizon_mult * block.t0)]
    return labels.tolist()


# ====================================================================
# Resonant purity in closed form
# ====================================================================

def uncorrelated_pole_purity(params: ModelParams) -> float:
    """Qubit purity on pole arrival from the uncorrelated thermal start:
    the qubit inherits the full bath polarization scale eta."""
    eta = params.eta
    return 0.5 + 2.0 * eta * eta


def s2_resonant_solution(params: ModelParams, mu: float, t) -> np.ndarray:
    """Qubit coherence z[4](t) under the resonant drive, initial value mu
    with zero initial rate.  (The other quadrature z[6] obeys the same
    damped oscillator; pass its initial value for mu.)

    z'' + (gamma/2) z' + J^2 z = 0, branches by the sign of J^2 - gamma^2/16.
    """
    t = np.asarray(t, dtype=float)
    J, q = params.J, 0.25 * params.gamma     # q: decay rate of the envelope
    disc = (J - q) * (J + q)                # no cancellation
    env = np.exp(-q * t)
    if disc == 0.0:
        return mu * env * (1.0 + q * t)
    w = math.sqrt(abs(disc))
    if disc > 0.0:
        return mu * env * (np.cos(w * t) + (q / w) * np.sin(w * t))
    # overdamped: terms e^{(w - q)t} and e^{-(w + q)t}, w - q = -J^2/(w + q)
    slow = -(J / (w + q)) * J
    return 0.5 * mu * ((1.0 + q / w) * np.exp(slow * t)
                       + slow / w * np.exp(-(w + q) * t))


def _s1_polarization(params: ModelParams, xis, ts) -> np.ndarray:
    """z[0] = c + r sin(theta) at ts[k] of the resonant run from the
    thermal-product start with cross coherence xis[k] (broadcast), one
    drift-flow cell each."""
    xis, ts = np.broadcast_arrays(np.asarray(xis, float),
                                  np.asarray(ts, float))
    r, c, th = _flow(_Cells.of([params], [xis])).spherical(ts)
    return c + r * np.sin(th)


def resonant_purity(params: ModelParams, xi: float, mus, ts) -> np.ndarray:
    """Qubit purity at each time of ts (rows) of the resonant run from the
    thermal-product start with cross coherence xi >= 0 and real qubit
    coherence mu, for each mu of mus (columns).  The reduced flow splits
    there: S1 carries xi alone, in its polarization z[0]; S2 carries mu
    alone, z[4] = mu g(t) with g = s2_resonant_solution(params, 1, t), and
    z[6] = 0.  So the purity is 1/2 + 2 (z[0]^2 + mu^2 g^2), with one S1
    evaluation per time for every mu."""
    z0 = _s1_polarization(params, xi, ts)
    coherence = np.outer(s2_resonant_solution(params, 1.0, ts), mus)
    return 0.5 + 2.0 * (z0[:, None] ** 2 + coherence ** 2)


def coherence_gains(params: ModelParams, xis, ts, mus) -> np.ndarray:
    """The gain delta_p = p / p_s1 - 1 from the coherence block of the
    start (mu, xis[k]) at time ts[k] (rows), for each mu of mus (columns),
    p_s1 the purity of the S1 block alone: 2 mu^2 g^2 / p_s1, with nothing
    cancelled.  At the pole it is 0 for mu = 0, and near 0 for xi = 0,
    where the oscillator's first zero meets the pole; correlations bring
    the pole earlier, and the gain is positive and grows with mu."""
    p_s1 = 0.5 + 2.0 * _s1_polarization(params, xis, ts) ** 2
    g = s2_resonant_solution(params, 1.0, ts)
    return 2.0 * np.outer(g * g / p_s1, np.square(mus))
