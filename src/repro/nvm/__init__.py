"""Nonvolatile-memory device models.

The DATE'17 tutorial surveys the NVM technologies NVPs are built from —
FeRAM (TI MSP430FR-class MCUs, the 3 µs-wake-up ferroelectric NVP),
ReRAM (the 65 nm ISSCC'16 NVP with adaptive data retention and
self-write-termination), STT-MRAM, PCM, Flash and emerging FeFET
latches.  This package provides:

* a :class:`~repro.nvm.technology.NVMTechnology` catalog with
  write/read energy, latency, retention, endurance and wake-up figures,
* an analytic STT-MRAM retention/write-energy model
  (:mod:`repro.nvm.sttram`) capturing the thermal-stability tradeoff
  that makes retention-relaxed ("approximate") backup profitable,
* retention-shaping policies and a bit-failure model
  (:mod:`repro.nvm.retention`),
* a behavioral NVM array with energy accounting
  (:mod:`repro.nvm.array`), and
* a self-write-termination write-circuit model
  (:mod:`repro.nvm.writecircuit`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "NVMArray": ".array",
    "WearReport": ".array",
    "DecodeStatus": ".ecc",
    "ecc_decode": ".ecc:decode",
    "ecc_encode": ".ecc:encode",
    "failure_probability": ".retention",
    "LinearPolicy": ".retention",
    "LogPolicy": ".retention",
    "ParabolaPolicy": ".retention",
    "RetentionPolicy": ".retention",
    "sample_bit_failures": ".retention",
    "UniformPolicy": ".retention",
    "optimal_pulse_width": ".sttram",
    "required_delta": ".sttram",
    "retention_from_delta": ".sttram",
    "STTParameters": ".sttram",
    "write_current": ".sttram",
    "write_energy": ".sttram",
    "write_energy_at_optimum": ".sttram",
    "FEFET": ".technology",
    "FERAM": ".technology",
    "NOR_FLASH": ".technology",
    "NVMTechnology": ".technology",
    "PCM": ".technology",
    "RERAM": ".technology",
    "SRAM_REFERENCE": ".technology",
    "STT_MRAM": ".technology",
    "TECHNOLOGIES": ".technology",
    "technology_by_name": ".technology",
    "SelfTerminatingWriteCircuit": ".writecircuit",
    "WriteCircuitReport": ".writecircuit",
})
