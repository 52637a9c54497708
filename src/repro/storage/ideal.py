"""Idealised energy store: no leakage, perfect conversion.

Used as a reference to separate architectural effects (backup/restore
overheads) from storage losses, and as the upper bound in the
capacitor-sizing experiment.
"""

from __future__ import annotations

import math

from repro.storage.capacitor import Capacitor, ChargeEfficiency

#: Voltage-independent, loss-free conversion.
UNIT_EFFICIENCY = ChargeEfficiency(
    eta_peak=1.0, eta_floor=1.0, v_opt_v=0.0, v_span_v=1.0
)


class IdealStorage(Capacitor):
    """Loss-free, efficiency-1.0 energy store with a capacity bound.

    A :class:`~repro.storage.capacitor.Capacitor` with identity
    parameters — ``C = 1``, a flat unit efficiency, infinite leak
    resistance, no minimum charge current — and a capacity of exactly
    ``capacity_j``.  Every loss term of the capacitor's charge chain
    is then an exact float identity (``x * 1.0``, ``x - 0.0``), so
    :meth:`step`, :meth:`charge_many` and the batched engines all run
    the one capacitor recurrence.
    """

    def __init__(self, capacity_j: float, initial_j: float = 0.0) -> None:
        if capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= initial_j <= capacity_j:
            raise ValueError("initial energy outside [0, capacity]")
        super().__init__(
            1.0,
            v_max_v=math.sqrt(2.0 * capacity_j),
            leak_resistance_ohm=math.inf,
            efficiency=UNIT_EFFICIENCY,
        )
        # Exactly the requested bound, not the rounded 0.5 * C * v_max².
        self.energy_max_j = capacity_j
        self._energy_j = initial_j

    @property
    def capacity_j(self) -> float:
        """Capacity, joules."""
        return self.energy_max_j

    @property
    def voltage_v(self) -> float:
        """Nominal rail voltage (constant 1.0 for the ideal store)."""
        return 1.0

    def set_energy(self, energy_j: float) -> None:
        """Force the stored energy (test/benchmark setup helper)."""
        if not 0 <= energy_j <= self.capacity_j:
            raise ValueError("energy outside [0, capacity]")
        self._energy_j = energy_j

    def __repr__(self) -> str:
        return f"IdealStorage(E={self._energy_j * 1e6:.3g}/{self.capacity_j * 1e6:.3g}uJ)"
