"""Fleet subsystem: batched lockstep simulation of device populations.

The fleet engine advances N heterogeneous devices — each with its own
platform preset, capacitor sizing, RNG seed, and trace offset —
through simulated time together.  Dormant devices (off/charge/done)
live in a struct-of-arrays layout and bulk-advance through one
vectorized charge step per tick; active devices tick exactly.  Every
device's :class:`~repro.system.result.SimulationResult` is bit-for-bit
identical to running the single-device engine on its sub-trace.

See ``docs/fleet.md`` for the layout and equivalence guarantees.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "build_power_segments": ".kernel",
    "FleetKernel": ".kernel",
    "PowerSegments": ".kernel",
    "replay_device": ".kernel",
    "run_fleet": ".kernel",
    "fleet_payload": ".report",
    "fleet_summary": ".report",
    "render_fleet_summary": ".report",
    "write_fleet_results": ".report",
    "FleetArrays": ".soa",
    "device_config_hash": ".spec",
    "DEVICE_OFFSET_KEY": ".spec",
    "FleetSpec": ".spec",
    "resolve_device_config": ".spec",
    "correlation_report": ".telemetry",
    "FleetTelemetry": ".telemetry",
    "render_correlation": ".telemetry",
})
