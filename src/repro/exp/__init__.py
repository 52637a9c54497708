"""Experiment engine: declarative, parallel, cache-aware sweeps.

The DATE'17 paper frames NVP design as architecture-space exploration
— comparing backup budgets, wake-up times and forward progress across
many technology/policy/capacitor points.  This package turns that
into infrastructure:

* :mod:`repro.exp.spec` — declarative experiment specs (grid / zip /
  ensemble) that expand into deterministic, content-hashed run
  configs;
* :mod:`repro.exp.runner` — a process-pool executor with per-run
  error isolation, timeouts, and ordered result collection;
* :mod:`repro.exp.cache` — a content-addressed on-disk result store
  keyed by config hash + code version, making re-runs incremental and
  interrupted sweeps resumable;
* :mod:`repro.exp.report` — folds outcomes into the
  ``benchmarks/results/`` JSON trajectory with PR-1 run manifests.

Quick start::

    from repro.exp import ExperimentSpec, ResultCache, SweepRunner

    spec = ExperimentSpec(
        name="cap-sweep",
        base={"source": "wristwatch", "duration_s": 2.0, "seed": 1},
        axes={"capacitance_f": [47e-9, 150e-9, 470e-9]},
    )
    outcome = SweepRunner(jobs=4, cache=ResultCache()).run(spec.expand())
    for record in outcome:
        print(record.label, record.simulation_result().forward_progress)

or, from the shell: ``python -m repro sweep spec.json --jobs 4``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "CACHE_DIR_ENV": ".cache",
    "DEFAULT_CACHE_DIR": ".cache",
    "default_cache_dir": ".cache",
    "ResultCache": ".cache",
    "outcome_payload": ".report",
    "outcome_table": ".report",
    "render_outcome": ".report",
    "write_results": ".report",
    "execute_run": ".runner",
    "RunRecord": ".runner",
    "SweepInterrupted": ".runner",
    "SweepOutcome": ".runner",
    "SweepRunner": ".runner",
    "config_hash": ".spec",
    "ExperimentSpec": ".spec",
    "resolve_config": ".spec",
})
