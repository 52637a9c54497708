"""Per-layer tracing for the benchmark, installed from outside the package.

A traced invocation runs with thin wrappers around the public (and a
few well-known internal) entry points of each simulator layer.  Every
wrapper records one span — name, start, end, parent span and the
invocation id — and the :class:`Tracer` keeps a stack so a layer's
*self* time (its span minus the part its child spans cover) is summed
online.  Counts and hit ratios are recorded by the same wrappers, so a
ratio is measured where the work happens.

The wrappers live only in this process and only while
:func:`instrument` is active.  The sweep workload never installs them:
its pool forks workers, which would inherit the patched classes.  For
the sweep, the spans :class:`repro.exp.SweepRunner` already records
(``SpanTracer``) are imported instead (:meth:`Tracer.import_sweep`).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

perf_counter = time.perf_counter

#: The span opened around one whole invocation; its self time is the
#: part of the invocation no layer span covers.
ROOT = "bench.invocation"

#: Runner-side sweep span names (``SpanTracer``) -> layer names.
_SWEEP_RUNNER_SPANS = {
    "sweep": "exp.runner",
    "cache.get": "exp.cache_get",
    "cache.put": "exp.cache_put",
    "collect": "exp.collect_wait",
    "run": "exp.runner",
    "fold": "obs.results_write",
}

#: Worker-side sweep span names -> layer names.  Workers run in other
#: processes, concurrently, so their time is reported summed over
#: workers and kept out of the invocation's self-time partition.
_SWEEP_WORKER_SPANS = {
    "build": "exp.worker_build",
    "simulate": "exp.worker_simulate",
}

#: Per-layer metrics: (name, unit).  Every traced run reports all of
#: them; a layer a workload never reaches reads 0.
PER_LAYER = (
    ("harvest.trace_build_s", "s"),
    ("harvest.rectify_s", "s"),
    ("workloads.build_s", "s"),
    ("isa.compile_s", "s"),
    ("isa.block_run_s", "s"),
    ("isa.block_run_calls", "count"),
    ("isa.fused_ratio", "ratio"),
    ("system.run_s", "s"),
    ("system.fast_forward_s", "s"),
    ("system.fast_forward_hit_ratio", "ratio"),
    ("system.exact_batch_s", "s"),
    ("system.exact_batch_hit_ratio", "ratio"),
    ("system.scalar_tick_s", "s"),
    ("system.ticks_fast_forwarded", "count"),
    ("system.ticks_batched", "count"),
    ("system.ticks_scalar", "count"),
    ("system.assemble_s", "s"),
    ("storage.charge_many_s", "s"),
    ("storage.charge_many_calls", "count"),
    ("storage.step_calls", "count"),
    ("core.outage_cycles", "count"),
    ("core.backup_commit_s", "s"),
    ("core.restore_read_s", "s"),
    ("nvm.power_outage_s", "s"),
    ("nvm.writes", "count"),
    ("core.outage_cycle_us", "us"),
    ("core.backup_success_ratio", "ratio"),
    ("baselines.tick_s", "s"),
    ("fleet.build_s", "s"),
    ("fleet.charge_tick_s", "s"),
    ("fleet.active_s", "s"),
    ("fleet.crossings_s", "s"),
    ("fleet.ticks_batched", "count"),
    ("fleet.telemetry_s", "s"),
    ("fleet.snapshots", "count"),
    ("exp.expand_s", "s"),
    ("exp.runner_s", "s"),
    ("exp.cache_get_s", "s"),
    ("exp.cache_hit_ratio", "ratio"),
    ("exp.cache_put_s", "s"),
    ("exp.worker_build_s", "s"),
    ("exp.worker_simulate_s", "s"),
    ("exp.worker_busy_frac", "ratio"),
    ("exp.collect_wait_s", "s"),
    ("exp.point_p50_s", "s"),
    ("exp.point_p90_s", "s"),
    ("exp.point_samples", "count"),
    ("obs.ledger_append_s", "s"),
    ("obs.results_write_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: Self-time metrics that partition the invocation's own timeline
#: (worker-process time excluded); they sum to at most its wall time.
TIMELINE_METRICS = tuple(
    name for name, unit in PER_LAYER
    if unit == "s"
    and not name.startswith(("exp.worker_", "exp.point_", "bench."))
) + ("bench.unattributed_s",)


class Tracer:
    """In-memory spans, per-invocation self times and counts."""

    def __init__(self, keep_spans: int = 100_000) -> None:
        self.keep_spans = keep_spans
        #: ``(id, parent_id, name, start_s, end_s, invocation)`` tuples,
        #: perf-counter clock; the first ``keep_spans`` are kept.
        self.spans: List[tuple] = []
        self.dropped = 0
        self.invocation = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.captured: Dict[str, list] = defaultdict(list)
        self.last_span: Dict[str, tuple] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def start_invocation(self) -> None:
        """Reset the per-invocation accumulators."""
        self.invocation += 1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.captured = defaultdict(list)
        self.last_span = {}

    # -- span bookkeeping ----------------------------------------------

    def _open(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        span = (frame[0], frame[2], name, start, end, self.invocation)
        self.last_span[name] = span
        if len(self.spans) < self.keep_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    def wrap(self, name: Optional[str], fn, after=None):
        """``fn`` wrapped in a span ``name`` (count-only when ``None``)."""
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            frame = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter())
            if after is not None:
                after(self, args, result)
            return result
        return traced

    # -- sweep spans recorded by the runner ------------------------------

    def import_sweep(self, span_tracer, parent: str) -> None:
        """Fold a ``SpanTracer``'s spans into this invocation.

        Runner-side spans nest inside the benchmark's ``parent`` span
        (the call into ``SweepRunner.run``); their self times come from
        interval containment.  Worker spans are summed per name.
        """
        offset = perf_counter() - time.time()
        parent_span = self.last_span[parent]
        # Clamp into the parent: the two clocks are aligned only to
        # within microseconds.
        low, high = parent_span[3], parent_span[4]
        runner = []
        for span in span_tracer.spans:
            base = span.name.split(":", 1)[0]
            if span.tid == "runner":
                layer = _SWEEP_RUNNER_SPANS.get(base)
                if layer is not None:
                    start = min(max(span.start_s + offset, low), high)
                    end = min(max(span.end_s + offset, start), high)
                    runner.append((start, end, layer))
            else:
                layer = _SWEEP_WORKER_SPANS.get(base)
                if layer is not None:
                    self.self_s[layer] += span.duration_s
            if span.name == "cache.get":
                self.counts["exp.cache_gets"] += 1
                self.counts["exp.cache_hits"] += bool(span.args.get("hit"))
        runner.sort(key=lambda item: (item[0], -item[1]))
        stack: List[list] = []
        top_level = 0.0
        for start, end, layer in runner:
            while stack and start >= stack[-1][1]:
                self._settle(stack.pop())
            duration = max(0.0, end - start)
            if stack:
                stack[-1][3] += duration
            else:
                top_level += duration
            self._next_id += 1
            if len(self.spans) < self.keep_spans:
                owner = stack[-1][4] if stack else parent_span[0]
                self.spans.append((self._next_id, owner, layer,
                                   start, end, self.invocation))
            stack.append([start, end, layer, 0.0, self._next_id])
        while stack:
            self._settle(stack.pop())
        self.self_s[parent] = max(0.0, self.self_s[parent] - top_level)

    def _settle(self, frame: list) -> None:
        start, end, layer, child, _ = frame
        self.self_s[layer] += max(0.0, (end - start) - child)

    def write(self, path: str) -> None:
        """Write the kept spans as JSON (one object per span)."""
        import json

        with open(path, "w") as handle:
            json.dump({
                "clock": "perf_counter",
                "dropped": self.dropped,
                "spans": [
                    {"id": sid, "parent": parent, "name": name,
                     "start_s": start, "end_s": end, "invocation": inv}
                    for sid, parent, name, start, end, inv in self.spans
                ],
            }, handle)
            handle.write("\n")


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()


# -- instrumentation ------------------------------------------------------


def _count(key: str):
    def after(tracer, args, result) -> None:
        tracer.counts[key] += 1
    return after


def _capture(key: str):
    def after(tracer, args, result) -> None:
        tracer.captured[key].append(args[0])
    return after


def _tick_path(path: str):
    """Count calls, hits and consumed ticks of a platform entry point."""
    def after(tracer, args, result) -> None:
        counts = tracer.counts
        if path == "scalar":
            counts["system.ticks_scalar"] += 1
            return
        counts[f"{path}.calls"] += 1
        if result:
            counts[f"{path}.hits"] += 1
            counts[f"system.ticks_{path}"] += sum(n for _, n in result)
    return after


def _assembled(tracer, args, result) -> None:
    tracer.counts["assembled.backups"] += result.backups
    tracer.counts["assembled.failed_backups"] += result.failed_backups


def _targets():
    """(owner, attribute, span name or None, after-hook) per wrapper."""
    from repro.baselines.checkpoint import CheckpointPlatform
    from repro.baselines.oracle import OraclePlatform
    from repro.baselines.waitcompute import WaitComputePlatform
    from repro.core.backup import BackupController
    from repro.core.nvp import NVPPlatform
    from repro.exp.cache import ResultCache
    from repro.fleet import kernel as fleet_kernel
    from repro.fleet.soa import FleetArrays
    from repro.fleet.telemetry import FleetTelemetry
    from repro.harvest.rectifier import Rectifier
    from repro.isa.blockengine import BlockEngine
    from repro.nvm.array import NVMArray
    from repro.storage.capacitor import Capacitor
    from repro.system import simulator

    targets = [
        (Rectifier, "output_power_array", "harvest.rectify", None),
        (fleet_kernel, "build_trace", "harvest.trace_build", None),
        (BlockEngine, "__init__", "isa.compile", _capture("engines")),
        (BlockEngine, "run", "isa.block_run", _count("isa.block_run_calls")),
        (simulator.SystemSimulator, "run", "system.run", None),
        (NVPPlatform, "fast_forward", "system.fast_forward",
         _tick_path("fast_forwarded")),
        (NVPPlatform, "exact_batch", "system.exact_batch",
         _tick_path("batched")),
        (NVPPlatform, "tick", "system.scalar_tick", _tick_path("scalar")),
        (simulator, "assemble_result", "system.assemble", _assembled),
        (fleet_kernel, "assemble_result", "system.assemble", _assembled),
        (Capacitor, "charge_many", "storage.charge_many",
         _count("storage.charge_many_calls")),
        (Capacitor, "step", None, _count("storage.step_calls")),
        (BackupController, "commit_backup", "core.backup_commit", None),
        (BackupController, "read_image", "core.restore_read",
         _count("core.outage_cycles")),
        (NVMArray, "power_outage", "nvm.power_outage", None),
        (NVMArray, "write", None, _count("nvm.writes")),
        (fleet_kernel.FleetKernel, "__init__", "fleet.build",
         _capture("kernels")),
        (FleetArrays, "charge_tick", "fleet.charge_tick", None),
        (fleet_kernel.FleetKernel, "_tick_active", "fleet.active", None),
        (fleet_kernel.FleetKernel, "_handle_crossings", "fleet.crossings",
         None),
        (FleetTelemetry, "sample", "fleet.telemetry", None),
        (FleetTelemetry, "finish", "fleet.telemetry", None),
        (ResultCache, "get", "exp.cache_get", _cache_hit),
        (ResultCache, "put", "exp.cache_put", None),
    ]
    for platform in (CheckpointPlatform, WaitComputePlatform, OraclePlatform):
        targets += [
            (platform, "fast_forward", "baselines.tick",
             _tick_path("fast_forwarded")),
            (platform, "exact_batch", "baselines.tick",
             _tick_path("batched")),
            (platform, "tick", "baselines.tick", _tick_path("scalar")),
        ]
    return targets


def _cache_hit(tracer, args, result) -> None:
    tracer.counts["exp.cache_gets"] += 1
    tracer.counts["exp.cache_hits"] += result is not None


@contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-invocation metric values ---------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def invocation_layers(tracer: Tracer, wall_s: float,
                      extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric for the invocation just traced.

    ``extra`` carries values the workload measured itself (sweep point
    percentiles, worker busy fraction).
    """
    s = tracer.self_s
    c = tracer.counts
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        if unit == "s" and name[:-2] in s:
            values[name] = s[name[:-2]]
    values["bench.unattributed_s"] = s.get(ROOT, 0.0)
    values["bench.traced_wall_s"] = wall_s
    for key in ("isa.block_run_calls", "system.ticks_fast_forwarded",
                "system.ticks_batched", "system.ticks_scalar",
                "storage.charge_many_calls", "storage.step_calls",
                "core.outage_cycles", "nvm.writes"):
        values[key] = c.get(key, 0.0)
    fused = stepped = 0
    for engine in tracer.captured.get("engines", ()):
        counts = engine.profile_counts()
        fused += counts["fused"]
        stepped += counts["stepped"]
    values["isa.fused_ratio"] = _ratio(fused, fused + stepped)
    values["system.fast_forward_hit_ratio"] = _ratio(
        c.get("fast_forwarded.hits", 0), c.get("fast_forwarded.calls", 0))
    values["system.exact_batch_hit_ratio"] = _ratio(
        c.get("batched.hits", 0), c.get("batched.calls", 0))
    cycle_s = (values["core.backup_commit_s"] + values["nvm.power_outage_s"]
               + values["core.restore_read_s"])
    values["core.outage_cycle_us"] = 1e6 * _ratio(
        cycle_s, values["core.outage_cycles"])
    backups = c.get("assembled.backups", 0)
    values["core.backup_success_ratio"] = _ratio(
        backups, backups + c.get("assembled.failed_backups", 0))
    kernels = tracer.captured.get("kernels", ())
    values["fleet.ticks_batched"] = float(
        sum(kernel.ticks_batched for kernel in kernels))
    values["exp.cache_hit_ratio"] = _ratio(
        c.get("exp.cache_hits", 0), c.get("exp.cache_gets", 0))
    if extra:
        values.update(extra)
    return values


def median_layers(per_invocation: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced invocations."""
    return {
        name: statistics.median(values[name] for values in per_invocation)
        for name, _ in PER_LAYER
    }
