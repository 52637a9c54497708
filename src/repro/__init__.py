"""nvpsim — a behavioral simulation framework for nonvolatile processors.

Reproduction of *"Nonvolatile processors: Why is it trending?"*
(F. Su, K. Ma, X. Li, T. Wu, Y. Liu, V. Narayanan — DATE 2017): an
end-to-end model of batteryless, energy-harvesting IoT systems built
around NVPs, spanning the NVM device layer, the MCU architecture, the
harvesting/storage front end, the system-level power-management state
machine, the conventional baselines, and the adaptive policies the
tutorial surveys.

Quick start::

    from repro import (
        wristwatch_trace, standard_rectifier, AbstractWorkload,
        build_nvp, build_wait_compute, SystemSimulator,
    )

    trace = wristwatch_trace(10.0, seed=1)
    nvp = build_nvp(AbstractWorkload())
    result = SystemSimulator(trace, nvp, rectifier=standard_rectifier()).run()
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced experiment suite.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "CheckpointConfig": ".baselines.checkpoint",
    "CheckpointPlatform": ".baselines.checkpoint",
    "OraclePlatform": ".baselines.oracle",
    "WaitComputePlatform": ".baselines.waitcompute",
    "BackupController": ".core.backup",
    "CompareAndWriteBackup": ".core.backup",
    "FullBackup": ".core.backup",
    "IncrementalWordBackup": ".core.backup",
    "NVPConfig": ".core.config",
    "NVPPlatform": ".core.nvp",
    "ForwardProgressLedger": ".core.progress",
    "WakeupModel": ".core.restore",
    "ResultCache": ".exp.cache",
    "RunRecord": ".exp.runner",
    "SweepOutcome": ".exp.runner",
    "SweepRunner": ".exp.runner",
    "ExperimentSpec": ".exp.spec",
    "analyze_outages": ".harvest.outage",
    "Rectifier": ".harvest.rectifier",
    "combine_traces": ".harvest.sources",
    "constant_trace": ".harvest.sources",
    "hybrid_trace": ".harvest.sources",
    "rf_trace": ".harvest.sources",
    "solar_trace": ".harvest.sources",
    "square_trace": ".harvest.sources",
    "standard_profiles": ".harvest.sources",
    "thermal_trace": ".harvest.sources",
    "wristwatch_trace": ".harvest.sources",
    "PowerTrace": ".harvest.traces",
    "dvfs_model": ".isa.energy",
    "EnergyModel": ".isa.energy",
    "NVMArray": ".nvm.array",
    "LinearPolicy": ".nvm.retention",
    "LogPolicy": ".nvm.retention",
    "ParabolaPolicy": ".nvm.retention",
    "UniformPolicy": ".nvm.retention",
    "FERAM": ".nvm.technology",
    "NVMTechnology": ".nvm.technology",
    "RERAM": ".nvm.technology",
    "STT_MRAM": ".nvm.technology",
    "TECHNOLOGIES": ".nvm.technology",
    "technology_by_name": ".nvm.technology",
    "EnergyBandGovernor": ".policy.dpm",
    "PowerAwareFrequencyPolicy": ".policy.freqscale",
    "ConfigMatcher": ".policy.mlmatch",
    "mse": ".quality.metrics",
    "psnr": ".quality.metrics",
    "Capacitor": ".storage.capacitor",
    "ChargeEfficiency": ".storage.capacitor",
    "DualChannelFrontEnd": ".storage.frontend",
    "SingleChannelFrontEnd": ".storage.frontend",
    "IdealStorage": ".storage.ideal",
    "TieredStorage": ".storage.tiered",
    "ADC_10BIT": ".system.peripherals",
    "IMAGE_SENSOR": ".system.peripherals",
    "Peripheral": ".system.peripherals",
    "PeripheralSet": ".system.peripherals",
    "RADIO_TRX": ".system.peripherals",
    "build_checkpoint": ".system.presets",
    "build_nvp": ".system.presets",
    "build_oracle": ".system.presets",
    "build_wait_compute": ".system.presets",
    "checkpoint_capacitor": ".system.presets",
    "nvp_capacitor": ".system.presets",
    "standard_rectifier": ".system.presets",
    "supercap": ".system.presets",
    "SimulationResult": ".system.result",
    "PeriodicTask": ".system.scheduler",
    "schedule_replay": ".system.scheduler",
    "ScheduleReport": ".system.scheduler",
    "SystemSimulator": ".system.simulator",
    "Telemetry": ".system.telemetry",
    "plan_thresholds": ".system.thresholds",
    "AbstractWorkload": ".workloads.base",
    "FunctionalWorkload": ".workloads.base",
    "Workload": ".workloads.base",
    "abstract_twin": ".workloads.suite",
    "build_kernel": ".workloads.suite",
    "expected_stream": ".workloads.suite",
    "KERNELS": ".workloads.suite",
    "make_functional_workload": ".workloads.suite",
    "measure_kernel": ".workloads.suite",
})
