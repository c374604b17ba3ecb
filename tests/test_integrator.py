"""The embedded Runge-Kutta stepper (accuracy, dense output, bookkeeping) and
the exact propagator of constant-coefficient flows."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tlspurify import integrator
from tlspurify.integrator import EVAL_CHUNK, MAX_NODES, integrate, propagate
from tlspurify.integrator import expm as exact_expm
from tlspurify.model import ModelParams
from tlspurify.reduced import z_generator


# ====================================================================
# Accuracy against closed forms and scipy
# ====================================================================

def test_linear_system_matches_expm():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    a *= 0.6
    y0 = rng.normal(size=6)
    res = integrate(lambda t, y: a @ y, (0.0, 2.0), y0,
                    rtol=1e-11, atol=1e-11)
    exact = expm(2.0 * a) @ y0
    assert np.abs(res.y[-1] - exact).max() < 1e-8 * np.abs(exact).max()
    assert res.t[-1] == 2.0


def test_exponential_decay_dense_output():
    res = integrate(lambda t, y: -y, (0.0, 3.0), np.array([1.0]),
                    rtol=1e-10, atol=1e-12)
    ts = np.linspace(0.0, 3.0, 200)
    vals = res.trajectory(ts)[:, 0]
    # the cubic interpolant between accepted nodes is coarser than the
    # node error itself
    assert np.abs(vals - np.exp(-ts)).max() < 1e-8
    # scalar evaluation returns a bare state vector
    single = res.trajectory(1.234)
    assert single.shape == (1,)
    assert single[0] == pytest.approx(math.exp(-1.234), abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(rate=st.floats(-2.0, 2.0), t_end=st.floats(0.2, 3.0))
def test_scalar_linear_flow_property(rate, t_end):
    res = integrate(lambda t, y: rate * y, (0.0, t_end), np.array([1.0]),
                    rtol=1e-10, atol=1e-12)
    assert res.y[-1][0] == pytest.approx(math.exp(rate * t_end), rel=1e-7,
                                           abs=1e-9)


def test_last_step_lands_on_span_end():
    """A step clipped to the span end can fall short of it by roundoff;
    the run must end there, not fail with a step-size underflow."""
    t_end = 0.42985418664295233
    res = integrate(lambda t, y: 0.0 * y, (0.0, t_end), np.array([1.0]),
                    rtol=1e-10, atol=1e-12)
    assert res.t[-1] == t_end
    assert res.y[-1][0] == 1.0


# ====================================================================
# Bookkeeping and guard rails
# ====================================================================

def test_step_accounting():
    res = integrate(lambda t, y: -y, (0.0, 2.0), np.array([1.0]),
                    rtol=1e-8, atol=1e-10)
    stats = res.stats
    assert stats.accepted == len(res.t) - 1
    assert stats.accepted > 0
    # 2 startup evaluations plus 6 per attempted step (FSAL pair)
    assert stats.n_eval == 2 + 6 * (stats.accepted + stats.rejected)


def test_zero_rhs_stays_constant():
    y0 = np.array([0.3, -1.2])
    res = integrate(lambda t, y: np.zeros(2), (0.0, 50.0), y0,
                    rtol=1e-10, atol=1e-12)
    assert np.array_equal(res.y[-1], y0)
    # the zero-error branch opens the step size up quickly
    assert res.stats.accepted < 30


def test_invalid_span_raises():
    for span in ((1.0, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, span, np.array([1.0]))


def test_step_budget(monkeypatch):
    """A run that has attempted MAX_STEPS steps and is not done ends with
    a RuntimeError; a run within the budget is untouched."""
    def run():
        return integrate(lambda t, y: -y, (0.0, 10.0), np.array([1.0]),
                         rtol=1e-12, atol=1e-12)

    free = run()
    needed = free.stats.accepted + free.stats.rejected
    monkeypatch.setattr(integrator, "MAX_STEPS", needed)
    assert np.array_equal(run().y, free.y)
    monkeypatch.setattr(integrator, "MAX_STEPS", needed - 1)
    with pytest.raises(RuntimeError, match="MAX_STEPS"):
        run()


def test_trajectory_shapes():
    res = integrate(lambda t, y: -y, (0.0, 1.0), np.array([1.0, 2.0]))
    out = res.trajectory(np.linspace(0.0, 1.0, 7))
    assert out.shape == (7, 2)
    assert res.trajectory(0.0).shape == (2,)
    assert np.abs(res.trajectory(0.0) - np.array([1.0, 2.0])).max() < 1e-14


def _within_roundoff(got, weights, k, y, h):
    """Whether got is y + h sum_j w_j k_j, summed in stage order as sum()
    does, to within 2 (n + 2) eps (|y| + h sum_j |w_j k_j|) for n
    nonzero weights: twice the first-order bound on how far two orders
    of the n-term sum can fall apart, plus the roundings of the product
    with h and of the sum with y.  y = 0 stands for no sum with y."""
    terms = [(w, kj) for w, kj in zip(weights, k) if w != 0.0]
    want = y + h * sum(w * kj for w, kj in terms)
    size = np.abs(y) + h * sum(abs(w) * np.abs(kj) for w, kj in terms)
    bound = 2.0 * (len(terms) + 2) * np.finfo(float).eps * size
    return bool(np.all(np.abs(got - want) <= bound))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 3, 8, 16, 17, 200]),
       seed=st.integers(0, 2**32 - 1), h=st.floats(1e-6, 1.0))
def test_step_matches_the_stage_sums_within_roundoff(dim, seed, h):
    """Each stage argument, y1 and the error vector are the tableau's
    weighted sums of the stages the step evaluated, up to the order of
    summation; and the root mean square has the bits of np.mean."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    b = rng.normal(size=dim)
    calls = []

    def f(t, y):
        out = a @ y + b * np.cos(t)
        calls.append((t, y.copy(), out))
        return out

    y = rng.normal(size=dim)
    fy = f(0.3, y)
    y1, f1, err = integrator._rk_step(f, 0.3, y, fy, h)
    ts, args, k = zip(*calls)
    assert len(k) == 7 and np.array_equal(f1, k[6])
    for i in range(1, 7):
        assert ts[i] == 0.3 + integrator._C[i] * h
        assert _within_roundoff(args[i], integrator._A[i, :i], k, y, h)
    assert _within_roundoff(y1, integrator._B, k, y, h)
    assert _within_roundoff(err, integrator._E, k, 0.0, h)
    q = err / (1e-10 + 1e-10 * np.abs(y))
    assert integrator._rms(q) == math.sqrt(float(np.mean(q ** 2)))


# ====================================================================
# Exact propagation of constant-coefficient flows
# ====================================================================

def _rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_expm_matches_scipy_random():
    """A random 16x16 matrix, at norms that take no squaring and several."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(16, 16))
    for scale in (0.01, 0.3, 1.0, 4.0):
        assert _rel_gap(exact_expm(scale * a), expm(scale * a)) < 1e-13


def test_expm_matches_scipy_defective_z_generator():
    """The augmented reduced generator at gamma = 4J exactly, where the
    S1 block is defective (a repeated eigenvalue with one eigenvector)."""
    base = ModelParams(kappa=0.1)
    p = ModelParams(kappa=0.1, J=0.25 * base.gamma)
    assert p.gamma == 4.0 * p.J
    m, b = z_generator(p, p.J, 0.0)
    aug = np.zeros((9, 9))
    aug[:8, :8] = m
    aug[:8, 8] = b
    for t in (0.1, p.t0, 5.0 * p.t0):
        assert _rel_gap(exact_expm(t * aug), expm(t * aug)) < 1e-13


def test_expm_of_zero_is_identity():
    zero = np.zeros((9, 9))
    got = exact_expm(zero)
    assert np.array_equal(expm(zero), np.eye(9))
    assert np.abs(got - np.eye(9)).max() <= 2.0 ** -52
    assert np.array_equal(got - np.diag(np.diag(got)), zero)


def test_propagate_refuses_past_node_cap():
    """A run needing far more than MAX_NODES node steps (2e18 here, and
    an infinite span) is refused before its node grid is allocated,
    which would have raised MemoryError instead; the cap itself runs."""
    a = np.array([[-1e12]])
    for span in ((0.0, 1e6), (0.0, math.inf)):
        with pytest.raises(ValueError, match="MAX_NODES"):
            propagate(a, span, np.ones(1))
    unit = np.array([[-1.0]])               # ||A||_1 = 1, NODE_NORM = 1/2
    edge = 0.5 * MAX_NODES
    assert propagate(unit, (0.0, edge), np.ones(1)).stats.accepted \
        == MAX_NODES
    with pytest.raises(ValueError, match="MAX_NODES"):
        propagate(unit, (0.0, edge * (1.0 + 1e-9)), np.ones(1))


def test_propagate_matches_expm_between_nodes():
    """Nodes, midpoints and arbitrary times of an affine run match
    e^{At} applied to the augmented state, scalar or array."""
    rng = np.random.default_rng(3)
    a = 0.7 * rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    y0 = rng.normal(size=5)
    aug = np.zeros((6, 6))
    aug[:5, :5] = a
    aug[:5, 5] = b
    res = propagate(a, (0.5, 4.0), y0, b=b)
    assert res.stats.rejected == 0
    assert res.stats.accepted == len(res.t) - 1 > 1
    ts = np.concatenate([res.t, 0.5 * (res.t[1:] + res.t[:-1]),
                         rng.uniform(0.5, 4.0, size=50)])
    got = res.trajectory(ts)
    exact = np.array([(expm((t - 0.5) * aug) @ np.append(y0, 1.0))[:5]
                      for t in ts])
    assert _rel_gap(got, exact) < 1e-13
    assert _rel_gap(res.y, exact[:len(res.t)]) < 1e-13
    assert res.trajectory(2.5).shape == (5,)
    assert res.y[-1] == pytest.approx(exact[len(res.t) - 1], rel=1e-13)
    with pytest.raises(ValueError):
        propagate(a, (1.0, 1.0), y0)


def test_exact_trajectory_memory_is_bounded():
    """One call at 100,000 times evaluates them EVAL_CHUNK at a time: its
    peak allocation stays below twice the output array, and the chunks
    agree with evaluating their times on their own."""
    rng = np.random.default_rng(5)
    res = propagate(0.1 * rng.normal(size=(16, 16)), (0.0, 50.0),
                    rng.normal(size=16), b=rng.normal(size=16))
    ts = np.linspace(0.0, 50.0, 100_000)
    tracemalloc.start()
    try:
        out = res.trajectory(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (100_000, 16)
    assert peak < 2 * out.nbytes
    assert np.array_equal(out[:EVAL_CHUNK], res.trajectory(ts[:EVAL_CHUNK]))
    picks = np.array([EVAL_CHUNK, 50_000, 99_999])
    assert _rel_gap(out[picks], res.trajectory(ts[picks])) < 1e-13
