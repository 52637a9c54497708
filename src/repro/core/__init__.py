"""The nonvolatile-processor core: the paper's primary subject.

An NVP mirrors its architectural state (register file, PC, pipeline
flip-flops) into distributed nonvolatile elements so that execution
survives power outages with microsecond-scale backup and wake-up.
This package provides:

* :class:`~repro.core.config.NVPConfig` — the architecture knob set,
* backup strategies (full / compare-and-write / word-incremental) and
  the :class:`~repro.core.backup.BackupController`,
* the restore / wake-up model (:mod:`repro.core.restore`),
* the forward-progress ledger (:mod:`repro.core.progress`), and
* :class:`~repro.core.nvp.NVPPlatform`, the tick-level platform model
  driven by :class:`~repro.system.simulator.SystemSimulator`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "BackupController": ".backup",
    "BackupResult": ".backup",
    "BackupStrategy": ".backup",
    "CompareAndWriteBackup": ".backup",
    "FullBackup": ".backup",
    "IncrementalWordBackup": ".backup",
    "strategy_by_name": ".backup",
    "NVPConfig": ".config",
    "NVPPlatform": ".nvp",
    "ForwardProgressLedger": ".progress",
    "RestoreResult": ".restore",
    "WakeupModel": ".restore",
})
