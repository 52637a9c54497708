"""Analysis helpers: result tables and instruction profiles."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "Profile": ".profiler",
    "profile_program": ".profiler",
    "ProfileEntry": ".profiler",
    "format_table": ".report",
    "ratio": ".report",
    "series_text": ".report",
})
