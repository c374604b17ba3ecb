"""The built-in cross-validation suite must pass, and must be falsifiable."""

from __future__ import annotations

import numpy as np
import pytest

from tlspurify.config import RunConfig
from tlspurify.reduced import make_rhs_z
from tlspurify.sweeps import verify_table
from tlspurify.verify import run_suite, suite_passed

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


def test_suite_all_green():
    checks = run_suite()
    assert [c.name for c in checks] == EXPECTED_ORDER
    failed = [(c.name, c.residual, c.tol) for c in checks if not c.passed]
    assert failed == []
    assert suite_passed(checks)
    for c in checks:
        assert np.isfinite(c.residual)
        assert 0.0 <= c.residual < c.tol


def test_suite_catches_corrupted_reduction():
    """Feed the equivalence check a reduced flow that is 1% off; exactly
    that one check must go red."""
    from tlspurify.model import ModelParams
    params = ModelParams().with_gamma_over_j(2.0)
    true_rhs = make_rhs_z(params)

    def skewed(t, z):
        return 1.01 * true_rhs(t, z)

    checks = run_suite(params, z_rhs_override=skewed)
    by_name = {c.name: c for c in checks}
    assert not by_name["full-vs-reduced"].passed
    assert not suite_passed(checks)
    others = [c for c in checks if c.name != "full-vs-reduced"]
    assert all(c.passed for c in others)


def test_verify_table_shape():
    table, ok = verify_table(RunConfig.from_dict({}))
    assert ok
    assert table.command == "verify"
    assert table.columns == ["check", "passed", "residual", "tol",
                             "n_steps", "n_rejected"]
    assert len(table.rows) == len(EXPECTED_ORDER)
    assert [r[0] for r in table.rows] == EXPECTED_ORDER
    assert table.metadata["all_passed"] is True


def test_verify_on_colder_bath():
    """Past beta ~ 2.2 a qubit cannot carry mu = 0.3; the coherence check
    starts below its ceiling, and every check still passes."""
    table, ok = verify_table(RunConfig.from_dict({"model": {"beta": 3.0}}))
    assert ok
    assert [r[0] for r in table.rows] == EXPECTED_ORDER


def test_verify_table_reports_failure():
    from tlspurify.model import ModelParams
    params = ModelParams().with_gamma_over_j(2.0)
    true_rhs = make_rhs_z(params)
    table, ok = verify_table(RunConfig.from_dict({}),
                             z_rhs_override=lambda t, z: 1.01 * true_rhs(t, z))
    assert not ok
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
        return next(c for c in run_suite(p) if c.name == "pole-purity")

    got = pole_purity(params)
    want = pole_purity(params.with_gamma_over_j(2.0))
    assert (got.residual, got.n_steps) == (want.residual, want.n_steps)
    assert got.passed
