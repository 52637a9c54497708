"""Behavioral NVM array with energy accounting and retention failures.

This is the storage target of the backup controller: a small array of
16-bit words (register file + pipeline state + marked RAM words).  It
charges write/read energy per access according to the attached
technology and retention-shaping policy, and can be aged through a
power outage, which relaxes (randomises) bits whose retention target
was shorter than the outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nvm.retention import (
    RetentionPolicy,
    UniformPolicy,
    policy_backup_energy_j,
)
from repro.nvm.sttram import DEFAULT_STT, STTParameters
from repro.nvm.technology import NVMTechnology, FERAM


@dataclass
class ArrayStats:
    """Cumulative accounting for an :class:`NVMArray`."""

    writes: int = 0
    reads: int = 0
    write_energy_j: float = 0.0
    read_energy_j: float = 0.0
    outages: int = 0
    #: writes rejected because the cell's endurance was exhausted
    #: (only with ``enforce_endurance=True``).
    worn_writes: int = 0
    #: retention failures observed per bit index (LSB first).
    bit_failures: List[int] = field(default_factory=list)

    def total_failures(self) -> int:
        return sum(self.bit_failures)


@dataclass(frozen=True)
class WearReport:
    """Endurance snapshot of an array.

    Attributes:
        max_writes: write count of the most-worn word.
        mean_writes: average write count across all words.
        worn_words: words whose write count exceeds the technology's
            endurance.
        endurance_cycles: the technology's endurance budget.
    """

    max_writes: int
    mean_writes: float
    worn_words: int
    endurance_cycles: float

    @property
    def headroom(self) -> float:
        """Remaining endurance fraction of the most-worn word."""
        if self.endurance_cycles <= 0:
            return 0.0
        return max(0.0, 1.0 - self.max_writes / self.endurance_cycles)


class NVMArray:
    """A word-addressed nonvolatile array.

    Args:
        size_words: number of 16-bit words.
        technology: device technology from the catalog.
        policy: retention-shaping policy; defaults to uniform nominal
            retention (precise backup).
        word_bits: bits per word (16 for NV16 state).
        stt_params: analytic device parameters used for the
            retention/energy scaling.
        enforce_endurance: when True, a word written more times than
            the technology's endurance becomes *stuck* — further writes
            are silently dropped (counted in ``stats.worn_writes``),
            modelling worn-out cells.
    """

    def __init__(
        self,
        size_words: int,
        technology: NVMTechnology = FERAM,
        policy: Optional[RetentionPolicy] = None,
        word_bits: int = 16,
        stt_params: Optional[STTParameters] = None,
        enforce_endurance: bool = False,
    ) -> None:
        if size_words <= 0:
            raise ValueError("array must have at least one word")
        if word_bits <= 0 or word_bits > 32:
            raise ValueError("word_bits must be in 1..32")
        self.size_words = size_words
        self.technology = technology
        self.policy = policy if policy is not None else UniformPolicy(
            technology.retention_s
        )
        self.word_bits = word_bits
        self.stt_params = stt_params if stt_params is not None else DEFAULT_STT
        self.enforce_endurance = enforce_endurance
        self._words = np.zeros(size_words, dtype=np.uint32)
        self._valid = np.zeros(size_words, dtype=bool)
        self._write_counts = np.zeros(size_words, dtype=np.int64)
        self.stats = ArrayStats(bit_failures=[0] * word_bits)
        self._word_write_energy_j = policy_backup_energy_j(
            self.policy, technology, word_bits, self.stt_params
        )
        # Failure probability per bit per unit outage is derived lazily
        # from the policy profile.
        self._retention_profile = np.array(
            self.policy.retention_profile(word_bits), dtype=float
        )
        self._bit_shifts = np.arange(word_bits, dtype=np.uint32)

    @property
    def word_write_energy_j(self) -> float:
        """Energy charged for one word write under the current policy."""
        return self._word_write_energy_j

    def write(self, address: int, value: int) -> None:
        """Write one word, charging policy-shaped write energy.

        A worn word (with ``enforce_endurance=True``) still costs the
        write energy, but its contents stick at their last value.
        """
        self._check_address(address)
        self.stats.writes += 1
        self.stats.write_energy_j += self._word_write_energy_j
        self._write_counts[address] += 1
        if (
            self.enforce_endurance
            and self._write_counts[address] > self.technology.endurance_cycles
        ):
            self.stats.worn_writes += 1
            return
        mask = (1 << self.word_bits) - 1
        self._words[address] = value & mask
        self._valid[address] = True

    def write_block(self, base: int, values: Sequence[int]) -> None:
        """Write a contiguous block of words, validated as a whole
        (see :meth:`write_words`)."""
        masked = self._masked(values)
        self._check_range(base, len(masked))
        self._store(slice(base, base + len(masked)), masked)

    def write_words(self, addresses: Sequence[int], values: Sequence[int]) -> None:
        """Write ``values[i]`` to ``addresses[i]``; addresses are distinct.

        Equivalent to one :meth:`write` per word in order, but the whole
        write is validated first, so a bad address leaves the array and
        its accounting untouched.
        """
        masked = self._masked(values)
        count = len(masked)
        if len(addresses) != count:
            raise ValueError(f"{len(addresses)} addresses for {count} values")
        for address in addresses:
            self._check_address(address)
        if len(set(addresses)) != count:
            raise ValueError("write_words addresses must be distinct")
        self._store(np.array(addresses, dtype=np.intp), masked)

    def read(self, address: int) -> int:
        """Read one word, charging read energy.

        Raises:
            ValueError: if the word was never written (reading
                uninitialised NVM is almost always a harness bug).
        """
        self._check_address(address)
        if not self._valid[address]:
            raise ValueError(f"word {address} has never been written")
        self.stats.reads += 1
        self.stats.read_energy_j += (
            self.technology.read_energy_j_per_bit * self.word_bits
        )
        return int(self._words[address])

    def read_block(self, base: int, count: int) -> List[int]:
        """Read a contiguous block of words.

        Equivalent to one :meth:`read` per word, but the whole block is
        validated (range and validity) before any read is counted.
        """
        self._check_range(base, count)
        block = slice(base, base + count)
        valid = self._valid[block].tolist()
        if False in valid:
            first = base + valid.index(False)
            raise ValueError(f"word {first} has never been written")
        stats = self.stats
        stats.reads += count
        energy_j = self.technology.read_energy_j_per_bit * self.word_bits
        total_j = stats.read_energy_j
        for _ in range(count):
            total_j += energy_j
        stats.read_energy_j = total_j
        return self._words[block].tolist()

    def power_outage(self, duration_s: float, rng: np.random.Generator) -> int:
        """Age the array through a power outage.

        Every valid word's bits relax independently with probability
        ``1 - exp(-duration / retention(bit))``; relaxed bits read back
        random values.  Returns the number of bits that actually
        flipped.

        Randomness: one ``rng.random((2, valid_words, word_bits))``
        draw per outage that has a valid word and a non-zero duration,
        whether or not any bit relaxes.  The first plane decides
        relaxation, the second the value a relaxed bit reads back; on a
        ``Generator`` this is the stream of two ``(valid_words,
        word_bits)`` draws.
        """
        if duration_s < 0:
            raise ValueError("outage duration cannot be negative")
        self.stats.outages += 1
        valid_idx = np.flatnonzero(self._valid)
        if len(valid_idx) == 0 or duration_s == 0.0:
            return 0
        p_relax = 1.0 - np.exp(-duration_s / self._retention_profile)
        draws = rng.random((2, len(valid_idx), self.word_bits))
        relaxed = draws[0] < p_relax
        if not relaxed.any():
            return 0
        failures = self.stats.bit_failures
        failures[:] = [
            before + count
            for before, count in zip(failures, relaxed.sum(axis=0).tolist())
        ]
        # A relaxed cell reads back a random bit: it flips with p=0.5.
        flips = relaxed & (draws[1] < 0.5)
        if not flips.any():
            return 0
        flip_masks = (flips << self._bit_shifts).sum(axis=1, dtype=np.uint32)
        self._words[valid_idx] ^= flip_masks
        return int(flips.sum())

    def wear_report(self) -> "WearReport":
        """Endurance snapshot (see :class:`WearReport`)."""
        worn = int(
            np.sum(self._write_counts > self.technology.endurance_cycles)
        )
        return WearReport(
            max_writes=int(self._write_counts.max()),
            mean_writes=float(self._write_counts.mean()),
            worn_words=worn,
            endurance_cycles=self.technology.endurance_cycles,
        )

    def _masked(self, values: Sequence[int]) -> List[int]:
        # Masking Python ints first lets any int (negative, wider than
        # the word) reach the uint32 store, exactly as in :meth:`write`.
        mask = (1 << self.word_bits) - 1
        return [value & mask for value in values]

    def _store(self, index, masked: List[int]) -> None:
        """Commit validated, masked words at ``index`` (a slice or an
        index array of distinct addresses) as that many :meth:`write`
        calls would."""
        if not masked:
            return
        stats = self.stats
        stats.writes += len(masked)
        energy_j = self._word_write_energy_j
        total_j = stats.write_energy_j
        for _ in masked:
            total_j += energy_j
        stats.write_energy_j = total_j
        counts = self._write_counts
        counts[index] += 1
        if self.enforce_endurance:
            fresh = counts[index] <= self.technology.endurance_cycles
            if not fresh.all():
                stats.worn_writes += len(masked) - int(fresh.sum())
                index = np.arange(self.size_words)[index][fresh]
                masked = np.asarray(masked, dtype=np.uint32)[fresh]
        self._words[index] = masked
        self._valid[index] = True

    def _check_range(self, base: int, count: int) -> None:
        if count < 0:
            raise ValueError(f"block length {count} is negative")
        if count and not (0 <= base and base + count <= self.size_words):
            # Name the first address outside the array.
            self._check_address(base)
            self._check_address(self.size_words)

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size_words:
            raise ValueError(
                f"address {address} outside array of {self.size_words} words"
            )
