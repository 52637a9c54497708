"""Two-tier energy storage: backup capacitor + overflow reservoir.

A lone backup-sized capacitor wastes every joule that arrives while it
is full — and kinetic harvesters deliver much of their energy in
2000 µW spikes that a 150 nF capacitor cannot absorb.  The two-tier
pattern keeps the small, low-loss capacitor as the NVP's working
supply and spills surplus into a larger reservoir, refilling the
primary from it (through a lossy transfer path) during droughts.

The class implements the standard storage interface
(``step``/``draw``/``energy_j``), so platforms use it exactly like a
single capacitor; thresholds see the *primary* energy, which is what
the NVP's rail actually offers.
"""

from __future__ import annotations

from repro.storage.capacitor import Capacitor, StorageStep


class TieredStorage:
    """A primary capacitor backed by an overflow reservoir.

    Args:
        primary: the small working capacitor (the NVP's rail).
        reservoir: the larger spill-over store.
        transfer_efficiency: efficiency of moving energy between tiers.
        transfer_power_w: maximum refill power from the reservoir into
            the primary.
        refill_fraction: refill whenever primary energy is below this
            fraction of its capacity.
    """

    def __init__(
        self,
        primary: Capacitor,
        reservoir: Capacitor,
        transfer_efficiency: float = 0.85,
        transfer_power_w: float = 500e-6,
        refill_fraction: float = 0.7,
    ) -> None:
        if not 0 < transfer_efficiency <= 1:
            raise ValueError("transfer efficiency must be in (0, 1]")
        if transfer_power_w <= 0:
            raise ValueError("transfer power must be positive")
        if not 0 < refill_fraction <= 1:
            raise ValueError("refill fraction must be in (0, 1]")
        self.primary = primary
        self.reservoir = reservoir
        self.transfer_efficiency = transfer_efficiency
        self.transfer_power_w = transfer_power_w
        self.refill_fraction = refill_fraction
        self.total_spilled_j = 0.0
        self.total_refilled_j = 0.0

    # -- storage interface --------------------------------------------------

    @property
    def energy_j(self) -> float:
        """Energy the NVP's rail can draw on immediately (primary)."""
        return self.primary.energy_j

    @property
    def total_energy_j(self) -> float:
        """Energy across both tiers."""
        return self.primary.energy_j + self.reservoir.energy_j

    @property
    def energy_max_j(self) -> float:
        """Primary capacity (what thresholds are planned against)."""
        return self.primary.energy_max_j

    @property
    def voltage_v(self) -> float:
        """Primary terminal voltage."""
        return self.primary.voltage_v

    def set_energy(self, energy_j: float) -> None:
        """Force the primary's stored energy (test helper)."""
        self.primary.set_energy(energy_j)

    def step(self, p_in_w: float, p_load_w: float, dt_s: float) -> StorageStep:
        """Advance one tick.

        Income charges the primary; whatever the primary cannot accept
        (it is full, or the conversion wasted it while full) spills to
        the reservoir.  When the primary is below the refill level, the
        reservoir pushes up to ``transfer_power_w`` back into it.
        """
        if p_in_w < 0 or p_load_w < 0:
            raise ValueError("powers cannot be negative")
        if dt_s <= 0:
            raise ValueError("dt must be positive")

        headroom = self.primary.energy_max_j - self.primary.energy_j
        # Split income: what the primary can physically hold this tick
        # goes there; the remainder spills toward the reservoir.
        to_primary_w = min(p_in_w, headroom / dt_s)
        spill_w = p_in_w - to_primary_w

        result = self.primary.step(to_primary_w, p_load_w, dt_s)

        if spill_w > 0:
            spill_result = self.reservoir.step(
                spill_w * self.transfer_efficiency, 0.0, dt_s
            )
            self.total_spilled_j += spill_result.charged_j

        # Refill during droughts.
        if (
            self.primary.energy_j
            < self.refill_fraction * self.primary.energy_max_j
            and self.reservoir.energy_j > 0
        ):
            want_j = min(
                self.transfer_power_w * dt_s,
                self.primary.energy_max_j - self.primary.energy_j,
            )
            drawn = self.reservoir.draw(want_j / self.transfer_efficiency)
            refill = drawn * self.transfer_efficiency
            self.primary.set_energy(
                min(self.primary.energy_j + refill, self.primary.energy_max_j)
            )
            self.total_refilled_j += refill

        return result

    def draw(self, energy_j: float) -> float:
        """Withdraw immediately: primary first, then the reservoir."""
        if energy_j < 0:
            raise ValueError("cannot draw negative energy")
        got = self.primary.draw(energy_j)
        if got < energy_j and self.reservoir.energy_j > 0:
            deficit = energy_j - got
            drawn = self.reservoir.draw(deficit / self.transfer_efficiency)
            got += drawn * self.transfer_efficiency
        return min(got, energy_j)

    def __repr__(self) -> str:
        return (
            f"TieredStorage(primary={self.primary.energy_j * 1e6:.3g}uJ, "
            f"reservoir={self.reservoir.energy_j * 1e6:.3g}uJ)"
        )
