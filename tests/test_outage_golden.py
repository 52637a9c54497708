"""Golden digests of the NVP outage cycle (backup -> aging -> restore).

Each case runs an NVP on STT-MRAM over a 5 s wristwatch trace and
hashes everything the outage cycle can touch: the
:class:`~repro.system.result.SimulationResult`, both NVM arrays'
:class:`~repro.nvm.array.ArrayStats`, the final stored words, and the
next draw of the platform RNG.  The digests in
``tests/golden/outage_cycle.json`` pin the behaviour bit for bit, so
any change to how the cycle consumes randomness or writes its arrays
shows up here.

Regenerating the file is a deliberate act::

    PYTHONPATH=src python tests/test_outage_golden.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import sys

import pytest

from repro.core.config import NVPConfig
from repro.harvest.sources import wristwatch_trace
from repro.nvm.retention import LinearPolicy
from repro.nvm.technology import STT_MRAM
from repro.system.presets import build_nvp, standard_rectifier
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "outage_cycle.json")

STRATEGIES = ("full", "compare_and_write", "incremental")
RETENTIONS = ("nominal", "linear")
CASES = [
    f"{strategy}-ecc{int(ecc)}-sram{sram}-{retention}"
    for strategy, ecc, sram, retention in itertools.product(
        STRATEGIES, (False, True), (0, 4), RETENTIONS
    )
]


def _config(case: str) -> NVPConfig:
    strategy, ecc, sram, retention = case.split("-")
    policy = (
        LinearPolicy(1e-3, STT_MRAM.retention_s) if retention == "linear" else None
    )
    return NVPConfig(
        technology=STT_MRAM,
        backup_strategy=strategy,
        retention_policy=policy,
        sram_backup_words=int(sram[len("sram"):]),
        ecc=ecc == "ecc1",
    )


def _array_view(array) -> dict:
    return {
        "stats": dataclasses.asdict(array.stats),
        "words": array._words.tolist(),
        "valid": array._valid.tolist(),
        "write_counts": array._write_counts.tolist(),
    }


def run_case(case: str) -> dict:
    """Run one configuration and return everything the digest covers."""
    platform = build_nvp(AbstractWorkload(), _config(case), seed=7)
    result = SystemSimulator(
        wristwatch_trace(5.0, seed=3), platform, rectifier=standard_rectifier()
    ).run()
    controller = platform.controller
    return {
        "result": result.to_dict(),
        "data_array": _array_view(controller._data_array),
        "control_array": _array_view(controller._control_array),
        "flipped_bits": controller.total_flipped_bits,
        "next_random": platform.rng.random(),
    }


def digest(view: dict) -> str:
    canonical = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outage_cycle_matches_golden(case):
    view = run_case(case)
    if case.endswith("linear"):
        # The relaxed cases must really exercise the bit-flip path.
        assert view["flipped_bits"] > 1000
    assert digest(view) == _load_golden()[case]


def _update() -> None:
    golden = {case: digest(run_case(case)) for case in CASES}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_outage_golden.py --update")
    _update()
