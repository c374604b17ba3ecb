"""The control: a constant detuning of the qubit from the defect.

The control is a shift epsilon of the qubit splitting.  What the
interaction-picture equations consume is the detuning

    delta = omega_q + epsilon - omega_tls,

entering through  J1 = J cos(phase), J2 = J sin(phase)  with
phase(t) = delta * t.  The resonant drive (delta = 0) is the time-optimal
one: it keeps the qubit on the defect frequency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantDrive:
    """Constant detuning; resonant control is ConstantDrive(0.0)."""

    detuning: float = 0.0

    def phase(self, t: float) -> float:
        return self.detuning * t

    def epsilon(self, params) -> float:
        """Qubit-frequency shift realizing this detuning."""
        return self.detuning - params.omega_q + params.omega_tls


def resonant() -> ConstantDrive:
    """The drive that parks the qubit exactly on the defect frequency."""
    return ConstantDrive(0.0)
