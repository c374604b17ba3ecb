"""Propagation of the flows: adaptive Dormand-Prince 5(4) integration
with dense output, and exact propagation of constant-coefficient flows by
the matrix exponential.

The Runge-Kutta integrator is deliberately hand-rolled rather than wrapping
scipy.integrate.solve_ivp: the analysis layer needs per-run
acceptance/rejection statistics and an interpolant we control, all with
byte-reproducible results independent of how work is distributed across
processes.  No command's own run needs it, since every drive is a constant
detuning: it is the independent side of the verify checks and of the
tests' oracles.  The tableau is the classic DOPRI5 embedded pair, held
once as arrays, and a step forms each weighted sum of its stages as one
matrix product; dense evaluation uses the cubic Hermite interpolant of
each accepted step, whose error is far below the working tolerances
here.

A flow y' = A y + b with constant A and b needs no stepping: propagate()
returns the states at the times its caller asks for.  It lays exact
nodes y_{k+1} = e^{A h} y_k over the span, keeps only the node nearest
each requested time, and evaluates the time by a short Taylor series from
it, exact to roundoff.  expm is Pade-13 scaling and squaring (Higham
2005), in numpy alone.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .model import StepStats

# ====================================================================
# Butcher tableau (Dormand-Prince 5(4))
# ====================================================================

_C = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
#: stage weights, lower-triangular: row i weights stages 0..i-1
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
     -212.0 / 729.0, 0.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0, 0.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0, 0.0],
])
#: 5th-order weights (row 7 of A: the method is FSAL)
_B = _A[6]
#: error weights b5 - b4
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])

MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
SAFETY = 0.9

#: most attempted (accepted + rejected) steps of one integrate() run.
#: Tolerances far below roundoff (rtol = atol = 1e-30) shrink the steps
#: until the span takes forever, and no step ever underflows; past the cap
#: the run ends with a RuntimeError, after about 2 s for the 8-coordinate
#: flow on a 2-core x86_64 host.  The largest run of the test suite takes
#: 3,738 attempted steps (the lab-frame Runge-Kutta run at 1e-12)
MAX_STEPS = 20_000


# ====================================================================
# Result containers
# ====================================================================

class Trajectory:
    """Piecewise cubic Hermite view of the accepted steps of one run."""

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray):
        self.ts = ts            # (n+1,)
        self.ys = ys            # (n+1, dim)
        self.fs = fs            # (n+1, dim)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1,
                    0, len(self.ts) - 2)
        t0 = self.ts[k][:, None]
        out = _hermite(t_arr[:, None], t0, self.ts[k + 1][:, None] - t0,
                       self.ys[k], self.fs[k], self.ys[k + 1], self.fs[k + 1])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


class IvpResult(NamedTuple):
    t: np.ndarray       # accepted steps (t[0] = t0), or the requested times
    y: np.ndarray       # states at those times, shape (len(t), dim)
    stats: StepStats
    trajectory: Trajectory | None = None    # Runge-Kutta runs only


# ====================================================================
# Core stepper
# ====================================================================

def _rk_step(f, t, y, fy, h):
    """One Dormand-Prince step.  Returns (y1, f1, err_vec), 6 fresh evals
    with the FSAL evaluation f1 reusable as the next step's fy.  The
    stages are the rows of one array, and each weighted sum of them is a
    product with a row of the tableau."""
    k = np.empty((7, y.size))
    k[0] = fy
    for i in range(1, 7):
        k[i] = f(t + _C[i] * h, y + h * (_A[i, :i] @ k[:i]))
    return y + h * (_B @ k), k[6], h * (_E @ k)


def _rms(q: np.ndarray) -> float:
    """Root mean square of q; np.add.reduce(q) / q.size is np.mean(q) to
    the bit, without its wrapper."""
    return math.sqrt(float(np.add.reduce(q * q) / q.size))


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return _rms(err / scale)


def _initial_step(f, t0, y0, f0, tf, atol, rtol):
    """Hairer-style starting step size guess (two cheap probes)."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, abs(tf - t0))
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, abs(tf - t0))


def _hermite(t, t0, h, y0, f0, y1, f1):
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> IvpResult:
    """Integrate y' = f(t, y) forward over t_span.

    Accepted steps are recorded as-is (no resampling); the trajectory
    evaluates in between by the Hermite interpolant of each step.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if not t0 < tf < math.inf:          # an endless span never ends the loop
        raise ValueError(f"need a finite span with tf > t0, got {t_span}")
    y = np.array(y0, dtype=float)
    fy = f(t0, y)
    h = _initial_step(f, t0, y, fy, tf, atol, rtol)
    accepted = rejected = 0

    ts = [t0]
    ys = [y.copy()]
    fs = [fy.copy()]
    t = t0

    while t < tf:
        if accepted + rejected >= MAX_STEPS:
            raise RuntimeError(f"integration past MAX_STEPS = {MAX_STEPS} "
                               f"attempted steps at t = {t:.6g} of {tf:.6g}:"
                               " the tolerances are too tight for the span")
        h = min(h, tf - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise RuntimeError(f"step size underflow at t = {t:.6g}")
        y1, f1, err = _rk_step(f, t, y, fy, h)
        enorm = _error_norm(err, y, y1, atol, rtol)
        if enorm > 1.0:
            rejected += 1
            h *= max(MIN_FACTOR, SAFETY * enorm ** -0.2)
            continue
        accepted += 1
        t1 = t + h
        if 0.0 < tf - t1 < 1e-14 * max(1.0, abs(t1)):
            t1 = tf             # a step clipped to tf fell short by roundoff
        ts.append(t1)
        ys.append(y1.copy())
        fs.append(f1.copy())
        t, y, fy = t1, y1, f1
        if enorm == 0.0:
            h *= MAX_FACTOR
        else:
            h *= min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * enorm ** -0.2))

    t_arr = np.array(ts)
    y_arr = np.array(ys)
    # two evaluations start the run, six go to each attempted step
    stats = StepStats(accepted, rejected, 2 + 6 * (accepted + rejected))
    return IvpResult(t=t_arr, y=y_arr, stats=stats,
                     trajectory=Trajectory(t_arr, y_arr, np.array(fs)))


# ====================================================================
# Exact propagation of constant-coefficient flows
# ====================================================================

#: numerator coefficients of the [13/13] Pade approximant to e^x
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

#: largest 1-norm at which the [13/13] approximant keeps its backward error
#: below the unit roundoff (Higham 2005, table 2.3); larger arguments are
#: scaled down, and the result squared back up
_THETA13 = 5.371920351148152

#: largest ||A||_1 h of one node step.  A requested time is at most h/2
#: from its nearest node, so ||A s||_1 <= 1/4 there, and the Taylor
#: series cut after the s^12 term leaves a tail below 4e-18 of the state
NODE_NORM = 0.5
TAYLOR_TERMS = 12

#: most node steps one propagate() run may take.  The count is
#: ||A||_1 span / NODE_NORM, so it grows with the rates and the span
#: without limit, and so does the run's time, one matrix product per
#: node: at the cap a 17-slot run takes about 0.1 s on a 2-core x86_64
#: host.  The default and benchmark configs need at most 3,456 (the
#: detuned lab-frame simulate)
MAX_NODES = 100_000

#: states (requested times, each for every start) propagate() evaluates
#: at once.  Each holds its TAYLOR_TERMS + 1 series terms, so the working
#: memory of the series is that of one chunk, about 3.6 MB for a 17-slot
#: state, however many are asked for.  The default 601 samples are one
#: chunk
EVAL_CHUNK = 2048


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max())
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def augment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[A, b], [0, 0]]: y' = A y + b as a linear flow on (y, 1)."""
    dim = len(b)
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = a
    aug[:dim, dim] = b
    return aug


def _rotate(k: np.ndarray, phi, y: np.ndarray) -> np.ndarray:
    """e^{phi K} applied to each row of y, for a generator of plane
    rotations (K^3 = -K): e^{phi K} = I + sin(phi) K + (1 - cos(phi)) K^2.
    phi is a float or one angle per row."""
    phi = np.asarray(phi, dtype=float)[..., None]
    ky = y @ k.T
    return y + np.sin(phi) * ky + (1.0 - np.cos(phi)) * (ky @ k.T)


def propagate(
    a: np.ndarray,
    t_span: tuple[float, float],
    y0: np.ndarray,
    times: np.ndarray,
    *,
    b: np.ndarray | None = None,
    rotation: tuple[np.ndarray, float] | None = None,
) -> IvpResult:
    """Exact solution of y' = A y + b (b = 0 when omitted) over t_span,
    from y0 or from each row of a stack of starts y0, shape (k, dim),
    reported at times: t is the times and y their states, shape
    (len(times), dim) or (len(times), k, dim).

    The nodes are y_{k+1} = e^{A h} y_k on a uniform grid with
    ||A||_1 h <= NODE_NORM; an affine b rides along as a constant last
    slot of the augmented generator [[A, b], [0, 0]].  A stack steps as
    the columns of one matrix.  The run keeps only the node nearest each
    time (a time outside the span takes the span's end node) and steps no
    further than the last of them; each time is a Taylor series from its
    node, EVAL_CHUNK states at a time.

    rotation = (K, omega), for a generator of plane rotations K, makes y
    the state in a frame that rotates at omega: the run reports
    x(t) = e^{omega t K} y(t), and y0 is x(t0).  A constant detuning gets
    constant coefficients this way.

    stats counts the grid's node steps as accepted steps and as
    evaluations; nothing is rejected.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if tf <= t0:
        raise ValueError(f"need tf > t0, got span {t_span}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a = np.asarray(a, dtype=float)
    y = np.array(y0, dtype=float)
    dim = y.shape[-1]
    if rotation is not None and rotation[1] == 0.0:
        rotation = None                 # a frame at rest
    if rotation is not None:
        y = _rotate(rotation[0], -rotation[1] * t0, y)
    if b is not None:
        a = augment(a, b)
        y = np.concatenate((y, np.ones_like(y[..., :1])), axis=-1)
    norm = float(np.abs(a).sum(axis=0).max())
    nodes = norm * (tf - t0) / NODE_NORM
    if not nodes <= MAX_NODES:
        raise ValueError(f"exact propagation over [{t0:.6g}, {tf:.6g}] needs "
                         f"{nodes:.3g} node steps, more than MAX_NODES = "
                         f"{MAX_NODES}: the rates or the span are too large")
    n = max(1, math.ceil(nodes))
    h = (tf - t0) / n
    near = np.clip(np.rint((times - t0) / h).astype(int), 0, n)
    offset = times - np.linspace(t0, tf, n + 1)[near]
    in_use = np.zeros(n + 1, dtype=bool)    # cheaper than np.unique's sort
    in_use[near] = True
    used = np.flatnonzero(in_use)
    slot = np.searchsorted(used, near)      # each time's row of kept
    step = expm(a * h)
    kept = np.empty((len(used),) + y.T.shape)   # a stack's starts as columns
    y, done = y.T, 0
    for j, node in enumerate(used.tolist()):
        while done < node:
            y = step @ y
            done += 1
        kept[j] = y
    kept = np.moveaxis(kept, 1, -1)             # and as rows again

    out = np.empty(times.shape + kept.shape[1:-1] + (dim,))
    size = max(1, EVAL_CHUNK // math.prod(kept.shape[1:-1]))
    for start in range(0, times.size, size):
        part = slice(start, start + size)
        # Taylor terms A^j y_k / j! of each node in use, weighted by the
        # powers of each time's offset from its node
        rows, which = np.unique(slot[part], return_inverse=True)
        terms = [kept[rows]]
        for j in range(1, TAYLOR_TERMS + 1):
            terms.append(terms[-1] @ (a.T / j))
        powers = np.vander(offset[part], TAYLOR_TERMS + 1, increasing=True)
        flat = np.stack(terms, axis=1)[which].reshape(
            len(powers), TAYLOR_TERMS + 1, -1)
        ys = (powers[:, None, :] @ flat).reshape(
            (-1,) + kept.shape[1:])[..., :dim]
        if rotation is not None:
            k, omega = rotation
            ys = _rotate(k, omega * times[part].reshape(
                (-1,) + (1,) * (ys.ndim - 2)), ys)
        out[part] = ys
    return IvpResult(t=times, y=out, stats=StepStats(accepted=n, n_eval=n))
