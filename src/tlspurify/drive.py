"""The control: a constant detuning of the qubit from the defect.

The control is a shift epsilon of the qubit splitting.  What the
interaction-picture equations consume is the detuning

    delta = omega_q + epsilon - omega_tls,

entering through  J1 = J cos(delta t), J2 = J sin(delta t).  The resonant
drive (delta = 0) is the time-optimal one: it keeps the qubit on the
defect frequency.
"""

from __future__ import annotations

from typing import NamedTuple


class ConstantDrive(NamedTuple):
    """Constant detuning; resonant control is ConstantDrive(0.0)."""

    detuning: float = 0.0

    def epsilon(self, params) -> float:
        """Qubit-frequency shift realizing this detuning."""
        return self.detuning - params.omega_q + params.omega_tls


def resonant() -> ConstantDrive:
    """The drive that parks the qubit exactly on the defect frequency."""
    return ConstantDrive(0.0)
