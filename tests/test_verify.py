"""The built-in cross-validation suite must pass, and must be falsifiable."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tlspurify import verify
from tlspurify.config import RunConfig
from tlspurify.liouville import rwa_generator
from tlspurify.model import ModelParams
from tlspurify.reduced import make_rhs_s1, make_rhs_z
from tlspurify.sweeps import verify_table
from tlspurify.verify import CheckResult, run_suite, suite_passed

EXPECTED_ORDER = [
    "generator-trace-free",
    "full-vs-reduced",
    "exact-vs-rk",
    "trace-preservation",
    "positivity",
    "z-conservation",
    "radius-monotone",
    "s2-closed-form",
    "pole-time-closed-form",
    "pole-purity",
    "coherence-gain-uncorrelated",
]

#: the n_steps column of the default report, in EXPECTED_ORDER.  The
#: Runge-Kutta controller's constants (SAFETY, MAX_FACTOR) set the
#: counts of the integrated checks, so a changed controller shows here
DEFAULT_STEPS = [0, 105, 104, 29, 0, 29, 117, 306, 3, 1, 0]


@pytest.fixture(scope="module")
def default_report():
    table = verify_table(RunConfig.from_dict({}))
    assert table.metadata["all_passed"] is True
    return table


def test_suite_all_green():
    checks = run_suite(ModelParams().with_gamma_over_j(2.0))
    assert [c.check for c in checks] == EXPECTED_ORDER
    failed = [(c.check, c.residual, c.tol) for c in checks if not c.passed]
    assert failed == []
    assert suite_passed(checks)
    for c in checks:
        assert np.isfinite(c.residual)
        assert 0.0 <= c.residual < c.tol


def _skewed_rhs_z(only=None):
    """make_rhs_z with a right-hand side 1% off, for the given params
    object only, or for every one."""
    def make(p):
        rhs = make_rhs_z(p)
        if only is not None and p is not only:
            return rhs
        return lambda t, z: 1.01 * rhs(t, z)
    return make


def test_suite_catches_corrupted_reduction(monkeypatch):
    """Feed the equivalence check a reduced flow that is 1% off; exactly
    that one check must go red.  s2-closed-form builds its own reduced
    flows, on other params objects, and they stay true."""
    params = ModelParams().with_gamma_over_j(2.0)
    monkeypatch.setattr(verify, "make_rhs_z", _skewed_rhs_z(only=params))
    checks = run_suite(params)
    by_name = {c.check: c for c in checks}
    assert not by_name["full-vs-reduced"].passed
    assert not suite_passed(checks)
    others = [c for c in checks if c.check != "full-vs-reduced"]
    assert all(c.passed for c in others)


def _leaky_generator(params, j1, j2, alpha=0.0):
    """The generator with a trace error of 1e-6 gamma1 per entry of its
    first row, as from an emission field that leaks population."""
    m = rwa_generator(params, j1, j2, alpha)
    m[0] += 1e-6 * params.gamma1
    return m


def _growing_s1(params):
    """The S1 direction flow with an extra radial growth of 3 gamma/2 in
    (w, v): the radius then grows at rate gamma."""
    rhs = make_rhs_s1(params)
    k = 1.5 * params.gamma

    def grown(t, q):
        dq = rhs(t, q)
        dq[:2] += k * q[:2]
        return dq

    return grown


@pytest.mark.parametrize("model", [{}, {"J": 1e-12, "kappa": 1e-12}],
                         ids=["default", "small-rates"])
@pytest.mark.parametrize("name, target, corrupt", [
    ("generator-trace-free", "rwa_generator", _leaky_generator),
    ("radius-monotone", "make_rhs_s1", _growing_s1)])
def test_rate_checks_fail_at_any_rate_scale(monkeypatch, model, name, target,
                                            corrupt):
    """The two checks of a quantity in rate units hold it relative to a
    rate scale of the run: a corruption in proportion to the rates fails
    at J = kappa = 1e-12 as it does at the default, and only its check."""
    params = RunConfig.from_dict({"model": model}).params()
    monkeypatch.setattr(verify, target, corrupt)
    checks = run_suite(params)
    assert [c.check for c in checks if not c.passed] == [name]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [{"beta": 10.0, "J": 1.0},
                                   {"beta": 0.1, "kappa": 10.0, "J": 0.1},
                                   {"beta": 0.001, "kappa": 0.1, "J": 0.1},
                                   {"beta": 1e-8, "kappa": 0.0, "J": 0.1}],
                         ids=["small-direction", "growing-direction",
                              "hot-bath", "hot-bath-lossless"])
def test_suite_passes_at_hard_corners(model):
    """radius-monotone reads a healthy run as one.  At beta = 10, J = 1
    the S1 direction has size 2.3e-5, so an absolute tolerance of 1e-10
    leaves its radial rate good to only 5e-6 relative; at gamma/J near
    670, e^{gamma t/2} times the decaying direction overflows within
    2 t0.  s2-closed-form reads the Runge-Kutta run at its accepted
    steps: at a hot bath the cubic interpolant in between reads 1.06e-8
    off the closed form, against a bound of 1e-8, while the steps
    themselves are within 2.2e-10.  Every check passes at all four, with
    no floating-point warning."""
    checks = run_suite(RunConfig.from_dict({"model": model}).params())
    assert [c.check for c in checks if not c.passed] == []


def test_default_work_counters(default_report):
    steps, rejected = zip(*(row[4:] for row in default_report.rows))
    assert list(steps) == DEFAULT_STEPS
    assert set(rejected) == {0}


def test_residuals_carry_no_sign(default_report):
    """A residual is a magnitude: none reads -0.0."""
    for name, _, residual, *_ in default_report.rows:
        assert math.copysign(1.0, residual) == 1.0, name


def test_verify_table_shape(default_report):
    table = default_report
    assert table.command == "verify"
    assert table.columns == ["check", "passed", "residual", "tol",
                             "n_steps", "n_rejected"]
    assert len(table.rows) == len(EXPECTED_ORDER)
    assert [r[0] for r in table.rows] == EXPECTED_ORDER
    assert table.metadata["all_passed"] is True


def test_report_rows_are_the_check_records(default_report):
    """verify's report holds run_suite's records themselves, field for
    column."""
    cfg = RunConfig.from_dict({})
    assert default_report.rows == run_suite(cfg.params(), rtol=cfg.rel_tol,
                                            atol=cfg.abs_tol)
    assert default_report.columns == list(CheckResult._fields)


def test_verify_on_colder_bath():
    """Past beta ~ 2.2 a qubit cannot carry mu = 0.3; the coherence check
    starts below its ceiling, and every check still passes."""
    table = verify_table(RunConfig.from_dict({"model": {"beta": 3.0}}))
    assert table.metadata["all_passed"] is True
    assert [r[0] for r in table.rows] == EXPECTED_ORDER


def test_verify_table_reports_failure(monkeypatch):
    monkeypatch.setattr(verify, "make_rhs_z", _skewed_rhs_z())
    table = verify_table(RunConfig.from_dict({}))
    assert table.metadata["all_passed"] is False
    flags = {r[0]: r[1] for r in table.rows}
    assert flags["full-vs-reduced"] is False


@pytest.mark.parametrize("kappa", [0.362, 1.0])
def test_pole_purity_past_critical_runs_at_ratio_two(kappa):
    """Where the bare start never reaches the pole (its pole past the
    horizon at kappa 0.362, gamma > 4J at 1.0), pole-purity is checked at
    gamma/J = 2 instead of passing on a stop point that is no pole: it
    reports the residual and step count the suite gives at gamma/J = 2."""
    params = RunConfig.from_dict({"model": {"kappa": kappa}}).params()

    def pole_purity(p):
        return next(c for c in run_suite(p) if c.check == "pole-purity")

    got = pole_purity(params)
    want = pole_purity(params.with_gamma_over_j(2.0))
    assert (got.residual, got.n_steps) == (want.residual, want.n_steps)
    assert got.passed
