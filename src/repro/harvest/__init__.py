"""Energy-harvesting front-end: sources, traces, rectifier, outages.

Ambient harvesters deliver unstable micro-watt power: a wrist-worn
kinetic harvester averages 10–40 µW but swings between 0 and ~2000 µW
at sub-millisecond granularity, producing on the order of a thousand
power emergencies in a 10 s window.  This package synthesises traces
with those statistics for each source class the DATE'17 tutorial
surveys (kinetic/piezo, solar, RF/WiFi, thermal), models the AC-DC
rectifier, and provides outage analytics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analyze_outages": ".outage",
    "OutageStats": ".outage",
    "Rectifier": ".rectifier",
    "combine_traces": ".sources",
    "constant_trace": ".sources",
    "hybrid_trace": ".sources",
    "rf_trace": ".sources",
    "solar_trace": ".sources",
    "SOURCE_GENERATORS": ".sources",
    "square_trace": ".sources",
    "standard_profiles": ".sources",
    "thermal_trace": ".sources",
    "wristwatch_trace": ".sources",
    "PowerTrace": ".traces",
})
