"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tlspurify.model import ModelParams

# CI runs with --hypothesis-profile=ci: the same examples on every run, so
# a rare draw cannot fail one build and pass the next; local runs keep
# drawing fresh examples
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def params_bath() -> ModelParams:
    """The configuration defaults: kappa = 0.1 at beta = 1, which puts the
    damping at gamma/J ~ 1.10 (well inside the pole-reaching regime)."""
    return ModelParams(kappa=0.1)


@pytest.fixture(scope="session")
def params_ratio2() -> ModelParams:
    """gamma/J = 2: the workhorse damped-but-reachable operating point."""
    return ModelParams().with_gamma_over_j(2.0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)
