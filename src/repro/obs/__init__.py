"""Observability layer: event bus, metrics, exporters, run manifests.

The simulation stack is instrumented with a single lightweight
:class:`~repro.obs.events.EventBus`; everything else in this package
is a consumer of that bus:

* :mod:`repro.obs.events` — typed events (outages, state transitions,
  backup/restore lifecycle, policy decisions) and the bus itself;
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry with
  labeled series;
* :mod:`repro.obs.export` — JSONL event logs, Chrome trace-event JSON
  (openable in Perfetto / ``chrome://tracing``), CSV metrics dumps;
* :mod:`repro.obs.manifest` — reproducibility manifest (seed, config,
  git SHA, durations);
* :mod:`repro.obs.summary` — live textual run summary for the
  ``repro observe`` CLI subcommand, plus the sweep and fleet
  dashboards (``repro sweep --live``, ``repro fleet watch``);
* :mod:`repro.obs.fleetstats` — streaming population statistics
  (P² quantiles, fixed-bin histograms, co-outage matrices) behind
  fleet telemetry;
* :mod:`repro.obs.synth` — run-length event synthesis, so the
  fast-forward engine serves every non-per-tick subscription
  bit-identically to exact ticking;
* :mod:`repro.obs.spans` — wall-clock span tracing for sweeps
  (``repro sweep --trace``);
* :mod:`repro.obs.history` — benchmark metric trajectories and the
  ``repro bench-report`` regression gate;
* :mod:`repro.obs.ledger` — the persistent run ledger every
  ``simulate``/``sweep``/``compare``/bench invocation appends to
  (``repro runs list/show/diff/gc``);
* :mod:`repro.obs.resources` — per-worker CPU/peak-RSS accounting via
  ``getrusage``, shipped home in sweep result payloads;
* :mod:`repro.obs.jsonl` — the one torn-line-tolerant reader behind
  the ledger, the benchmark history and telemetry snapshots.

When no bus is attached the instrumented code paths reduce to a
single ``is not None`` test per tick — simulations without observers
pay (near) nothing.  When a bus *is* attached, only a ``sim.tick``
subscription forces the exact engine; everything else rides the fast
path.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "Event": ".events",
    "EventBus": ".events",
    "EventLog": ".events",
    "chrome_trace": ".export",
    "flatten_snapshot": ".export",
    "load_chrome_trace": ".export",
    "prometheus_text": ".export",
    "read_snapshots": ".export",
    "snapshot_prometheus": ".export",
    "SnapshotWriter": ".export",
    "write_chrome_trace": ".export",
    "write_events_jsonl": ".export",
    "write_metrics_csv": ".export",
    "write_prometheus": ".export",
    "co_outage_matrix": ".fleetstats",
    "find_storms": ".fleetstats",
    "FixedBinHistogram": ".fleetstats",
    "P2Quantile": ".fleetstats",
    "QuantileDigest": ".fleetstats",
    "windowed_outages": ".fleetstats",
    "append_record": ".history",
    "BenchReport": ".history",
    "build_report": ".history",
    "read_history": ".history",
    "default_ledger_path": ".ledger",
    "diff_records": ".ledger",
    "format_diff": ".ledger",
    "RunLedger": ".ledger",
    "RunManifest": ".manifest",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "aggregate_usage": ".resources",
    "ResourceSample": ".resources",
    "sample_resources": ".resources",
    "usage_between": ".resources",
    "Span": ".spans",
    "SpanTracer": ".spans",
    "FleetMonitor": ".summary",
    "LiveSummary": ".summary",
    "SweepMonitor": ".summary",
    "FastPathEventSynthesizer": ".synth",
})
