"""System-level co-simulation.

Couples a harvested-power trace, the rectifier, the storage element
and a platform model (NVP or baseline) at a 0.1 ms tick — a direct
re-implementation of the published MATLAB/Python system-level
simulation methodology that drove the RTL/functional simulator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "SimulationResult": ".result",
    "PeriodicTask": ".scheduler",
    "schedule_replay": ".scheduler",
    "ScheduleReport": ".scheduler",
    "Platform": ".simulator",
    "SystemSimulator": ".simulator",
    "TickReport": ".simulator",
    "Telemetry": ".telemetry",
    "plan_thresholds": ".thresholds",
    "ThresholdPlan": ".thresholds",
})
