"""The drive: a constant detuning and the qubit shift."""

from __future__ import annotations

import pytest

from tlspurify.drive import ConstantDrive, resonant
from tlspurify.model import ModelParams


def test_constant_drive_basics():
    d = ConstantDrive(0.3)
    assert d.detuning == 0.3


def test_resonant_is_zero_detuning():
    assert resonant() == ConstantDrive(0.0)


def test_epsilon_realizes_the_detuning():
    # the qubit shift behind a detuning: delta + omega_tls - omega_q
    p = ModelParams()
    assert resonant().epsilon(p) == pytest.approx(2.0)
    assert ConstantDrive(0.5).epsilon(p) == pytest.approx(2.5)
