"""The benchmark's four workloads, each one user command end to end.

Each workload drives the same public entry points as one CLI command
(``repro simulate``, ``repro sweep``, ``repro fleet run``) in-process,
as a closed loop with one client: the next invocation starts when the
previous one returned.  Every input is generated from the run's seed.

A workload object offers:

* ``prepare()`` — one-off, untimed preparation (the sweep's pre-seeded
  cache, spec files);
* ``invoke(tracer)`` — one timed invocation, returning an
  :class:`Invocation` with its phase times and the digest of every
  simulation result it produced;
* ``reference()`` — the digest of the scalar reference (fast-forward
  off, exact-batch off, block engine off) for the same inputs;
* ``verify(invocation)`` — the cross-checks run once per benchmark
  run (replayed fleet devices, re-executed sweep points); returns a
  list of problems.  Per-invocation checks (FIR frames bit-exact to a
  numpy FIR, sweep cache accounting) land in ``Invocation.problems``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from layers import maybe_span

perf_counter = time.perf_counter

#: Worker processes for the sweep pool (the host has two cores).
SWEEP_JOBS = 2
#: Samples per FIR frame.
FIR_LENGTH = 128
#: The simulator's tick (every generated trace uses the default).
TICK_S = 1e-4


@dataclass(frozen=True)
class Size:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` the self-test."""

    wristwatch_s: float = 60.0
    fir_frames: int = 150
    fir_trace_s: float = 4.0
    fleet_traces: int = 64
    fleet_replicas: int = 4
    fleet_trace_s: float = 0.5
    fleet_telemetry_s: float = 0.005
    sweep_seeds: int = 16
    sweep_point_s: float = 0.5


FULL = Size()
TINY = Size(wristwatch_s=2.0, fir_frames=6, fir_trace_s=1.0,
            fleet_traces=2, fleet_replicas=2, fleet_trace_s=0.2, fleet_telemetry_s=0.05,
            sweep_seeds=2, sweep_point_s=0.1)


@dataclass
class Invocation:
    """What one timed invocation did, in host seconds."""

    wall_s: float
    setup_s: float
    engine_s: float
    ticks: int
    instructions: int
    points: int
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Traced-run values the workload measured itself.
    layer_extra: Dict[str, float] = field(default_factory=dict)
    #: Per-point worker wall times (sweep only).
    point_walls: List[float] = field(default_factory=list)
    payload: object = None
    #: Calibration time around the invocation ÷ its nominal value.
    host_factor: float = 1.0


def digest(results) -> str:
    """SHA-256 of the canonical JSON of result dicts."""
    from repro.exp.spec import canonical_json

    return hashlib.sha256(canonical_json(results).encode()).hexdigest()


@contextmanager
def scalar_engine():
    """Block engine off for the duration (the scalar reference)."""
    from repro.isa import blockengine

    was = blockengine.enabled()
    blockengine.set_enabled(False)
    try:
        yield
    finally:
        blockengine.set_enabled(was)


def scalar_config_result(config: Dict) -> Dict:
    """Run one resolved sweep/fleet config on the scalar reference path."""
    from repro.fleet import replay_device

    with scalar_engine():
        result, _ = replay_device(
            config, use_fast_forward=False, use_exact_batch=False
        )
    return result.to_dict()


def _ledger_append(record) -> None:
    from repro.obs.ledger import RunLedger

    ledger = RunLedger.from_env()
    if ledger is not None:
        ledger.append(record)


class Workload:
    name = ""
    why = ""
    #: Whether traced invocations may patch layer classes in this
    #: process (the sweep's pool forks workers, which would inherit
    #: the patches).
    patch_in_process = True
    #: Whether a run computes the full scalar reference when no digest
    #: is committed for its seed (too slow for the fleet and sweep).
    reference_per_run = True

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def isolate(self) -> str:
        """Fresh cache and ledger directories; returns the cache dir."""
        cache_dir = self.fresh_dir("cache-")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ["REPRO_LEDGER_DIR"] = self.fresh_dir("ledger-")
        return cache_dir

    def prepare(self) -> None:
        pass

    def verify(self, invocation: Invocation) -> List[str]:
        return []


# -- repro simulate -----------------------------------------------------


class _Simulate(Workload):
    """``repro simulate``: trace -> preset -> ``SystemSimulator.run`` -> ledger."""

    kernel: Optional[str] = None

    def build(self, tracer, scalar: bool = False):
        raise NotImplementedError

    def outputs(self, workload):
        """What the program wrote, digested with the result."""
        return None

    def check(self, workload) -> List[str]:
        return []

    def invoke(self, tracer=None) -> Invocation:
        from repro.obs.ledger import OUTCOME_OK, make_record
        from repro.obs.resources import sample_resources, usage_between

        self.isolate()
        started = time.time()
        t0 = perf_counter()
        usage_before = sample_resources()
        simulator, workload = self.build(tracer)
        t1 = perf_counter()
        result = simulator.run()
        t2 = perf_counter()
        with maybe_span(tracer, "obs.ledger_append"):
            _ledger_append(make_record(
                "simulate", OUTCOME_OK, started, time.time(),
                experiment=self.kernel,
                resources=usage_between(usage_before, sample_resources()),
                n_devices=1,
            ))
        t3 = perf_counter()
        ticks = (simulator.ticks_fast_forwarded + simulator.ticks_batched
                 + simulator.ticks_exact)
        return Invocation(
            wall_s=t3 - t0, setup_s=t1 - t0, engine_s=t2 - t1, ticks=ticks,
            instructions=result.total_executed, points=1,
            digest=digest([result.to_dict(), self.outputs(workload)]),
            problems=self.check(workload),
        )

    def reference(self) -> str:
        with scalar_engine():
            simulator, workload = self.build(None, scalar=True)
            result = simulator.run()
            return digest([result.to_dict(), self.outputs(workload)])


class SimulateWristwatchNVP(_Simulate):
    name = "simulate_wristwatch_nvp"
    why = ("NVP on a long wristwatch trace: thousands of outages, so the "
           "outage cycle and the dormant charge recurrence dominate")

    def build(self, tracer, scalar=False):
        from repro.harvest.sources import wristwatch_trace
        from repro.system.presets import build_nvp, standard_rectifier
        from repro.system.simulator import SystemSimulator
        from repro.workloads.base import AbstractWorkload

        with maybe_span(tracer, "harvest.trace_build"):
            trace = wristwatch_trace(self.size.wristwatch_s, seed=self.seed)
        workload = AbstractWorkload()
        simulator = SystemSimulator(
            trace, build_nvp(workload), rectifier=standard_rectifier(),
            stop_when_finished=False,
            use_fast_forward=False if scalar else None,
            use_exact_batch=False if scalar else None,
        )
        return simulator, workload


class SimulateFirNV16(_Simulate):
    name = "simulate_fir_nv16"
    why = ("compiled NV16 FIR on a 90%-duty square wave: block-engine "
           "execution dominates and only two outages occur")
    kernel = "fir"

    def build(self, tracer, scalar=False):
        from repro.harvest.sources import square_trace
        from repro.system.presets import build_nvp, standard_rectifier
        from repro.system.simulator import SystemSimulator
        from repro.workloads.suite import build_kernel, make_functional_workload

        with maybe_span(tracer, "harvest.trace_build"):
            trace = square_trace(400e-6, 0.0, 1.0, 0.9, self.size.fir_trace_s)
        with maybe_span(tracer, "workloads.build"):
            build = build_kernel("fir", length=FIR_LENGTH, seed=self.seed)
            workload = make_functional_workload(
                build, frames=self.size.fir_frames
            )
        simulator = SystemSimulator(
            trace, build_nvp(workload), rectifier=standard_rectifier(),
            stop_when_finished=True,
            use_fast_forward=False if scalar else None,
            use_exact_batch=False if scalar else None,
        )
        return simulator, workload

    def outputs(self, workload):
        return [int(word) for word in workload.outputs]

    def prepare(self) -> None:
        """The expected MMIO stream: a numpy FIR of the same signal."""
        from repro.workloads.fir import DEFAULT_TAPS, SHIFT
        from repro.workloads.images import test_signal

        signal = test_signal(FIR_LENGTH, self.seed).astype(np.int64)
        taps = np.array(DEFAULT_TAPS, dtype=np.int64)
        filtered = np.convolve(signal, taps)[len(taps) - 1:len(signal)]
        frame = ((filtered & 0xFFFF) >> SHIFT).astype(np.uint16)
        self.expected = np.tile(frame, self.size.fir_frames)

    def check(self, workload) -> List[str]:
        """Every frame's output is bit-exact to the numpy reference."""
        outputs = np.array(workload.outputs, dtype=np.uint16)
        if not np.array_equal(outputs, self.expected):
            return [f"FIR output ({len(outputs)} words) differs from the "
                    f"numpy reference ({len(self.expected)} words)"]
        return []


# -- repro fleet run ----------------------------------------------------------


class FleetMixed(Workload):
    """``repro fleet run --no-cache``: ``FleetSpec.devices`` -> ``run_fleet``.

    The result cache is left to the sweep workload: writing one JSON
    file per device made the fleet's wall time follow disk noise.
    """

    name = "fleet_mixed"
    why = ("staggered nvp/checkpoint/wait fleet in lockstep with telemetry: "
           "the only workload that runs repro.fleet")
    #: Devices replayed through the single engine after every run.
    SAMPLE = 6
    reference_per_run = False

    def spec_dict(self) -> Dict:
        size = self.size
        # Several short traces rather than one: a 0.5 s wristwatch trace
        # is either mostly motion or mostly rest, so one trace would make
        # the fleet's cost swing with the seed.
        first = self.seed * size.fleet_traces
        return {
            "name": "bench-fleet",
            "base": {"source": "wristwatch", "duration_s": size.fleet_trace_s,
                     "platform_seed": self.seed, "mean_uw": 8.0},
            "axes": {"platform": ["nvp", "checkpoint", "wait"],
                     "seed": list(range(first, first + size.fleet_traces))},
            "replicas": size.fleet_replicas,
            "stagger_s": 0.0002,
        }

    def prepare(self) -> None:
        self.spec_path = os.path.join(self.workdir, "fleet.json")
        with open(self.spec_path, "w") as handle:
            json.dump(self.spec_dict(), handle)

    def invoke(self, tracer=None) -> Invocation:
        from repro.fleet import FleetSpec, FleetTelemetry, run_fleet
        from repro.obs import EventBus
        from repro.obs import events as ev
        from repro.obs.ledger import sweep_record

        self.isolate()
        marks = {}
        bus = EventBus()
        bus.subscribe(lambda event: marks.setdefault(event.name, perf_counter()),
                      names=(ev.FLEET_BEGIN, ev.FLEET_END))
        started = time.time()
        t0 = perf_counter()
        spec = FleetSpec.from_file(self.spec_path)
        configs = spec.devices()
        telemetry = FleetTelemetry(every_s=self.size.fleet_telemetry_s)
        outcome = run_fleet(configs, bus=bus, telemetry=telemetry)
        with maybe_span(tracer, "obs.ledger_append"):
            _ledger_append(sweep_record(
                "fleet", spec.name, outcome, started, time.time(),
                n_devices=len(configs), telemetry=telemetry.summary(),
            ))
        t1 = perf_counter()
        results = [record.result for record in outcome.records]
        problems = []
        if outcome.failed or outcome.executed != len(configs):
            problems.append(f"fleet executed {outcome.executed} of "
                            f"{len(configs)} devices, {outcome.failed} failed")
        return Invocation(
            wall_s=t1 - t0,
            setup_s=marks[ev.FLEET_BEGIN] - t0,
            engine_s=marks[ev.FLEET_END] - marks[ev.FLEET_BEGIN],
            ticks=sum(round(r["duration_s"] / TICK_S) for r in results),
            instructions=sum(r["total_executed"] for r in results),
            points=len(configs),
            digest=digest(results),
            problems=problems,
            layer_extra={"fleet.snapshots": float(telemetry.snapshots)},
            payload=(configs, results),
        )

    def sample(self, n_devices: int) -> List[int]:
        step = max(1, n_devices // self.SAMPLE)
        return sorted({*range(0, n_devices, step), n_devices - 1})

    def verify(self, invocation: Invocation) -> List[str]:
        """Sampled devices equal a scalar single-engine replay."""
        configs, results = invocation.payload
        return [
            f"device {index} differs from its scalar replay"
            for index in self.sample(len(configs))
            if digest(scalar_config_result(configs[index]))
            != digest(results[index])
        ]

    def reference(self) -> str:
        from repro.fleet import FleetSpec

        configs = FleetSpec.from_dict(self.spec_dict()).devices()
        return digest([scalar_config_result(config) for config in configs])


# -- repro sweep ---------------------------------------------------------------


class SweepHalfCached(Workload):
    """``repro sweep``: ``expand`` -> ``SweepRunner.run`` -> ledger -> results."""

    name = "sweep_half_cached"
    why = ("short sweep points, every other one already cached: per-point "
           "overhead, the result cache and the ledger, not ticks")
    #: Cached and executed points re-run on the scalar path per run.
    SAMPLE = 4
    patch_in_process = False
    reference_per_run = False

    def spec_dict(self) -> Dict:
        first = self.seed * self.size.sweep_seeds
        return {
            "name": "bench-sweep",
            "base": {"duration_s": self.size.sweep_point_s},
            "axes": {
                "platform": ["nvp", "wait", "checkpoint", "oracle"],
                "source": ["wristwatch", "solar", "rf", "thermal"],
                "seed": list(range(first, first + self.size.sweep_seeds)),
            },
        }

    def prepare(self) -> None:
        """Write the spec and pre-seed a cache with every other point."""
        from repro.exp import ExperimentSpec, ResultCache, SweepRunner

        self.spec_path = os.path.join(self.workdir, "sweep.json")
        with open(self.spec_path, "w") as handle:
            json.dump(self.spec_dict(), handle)
        self.seeded_cache = self.fresh_dir("seeded-")
        configs = ExperimentSpec.from_file(self.spec_path).expand()
        outcome = SweepRunner(
            jobs=SWEEP_JOBS, cache=ResultCache(self.seeded_cache)
        ).run(configs[::2])
        outcome.raise_on_failure()

    def invoke(self, tracer=None) -> Invocation:
        from repro.exp import (ExperimentSpec, ResultCache, SweepRunner,
                               write_results)
        from repro.obs import EventBus, SpanTracer
        from repro.obs import events as ev
        from repro.obs.ledger import sweep_record

        cache_dir = self.isolate()
        shutil.rmtree(cache_dir)
        shutil.copytree(self.seeded_cache, cache_dir)
        results_dir = self.fresh_dir("results-")
        marks = {}
        bus = EventBus()
        bus.subscribe(lambda event: marks.setdefault(event.name, perf_counter()),
                      names=(ev.SWEEP_BEGIN,))
        span_tracer = SpanTracer() if tracer is not None else None
        started = time.time()
        t0 = perf_counter()
        spec = ExperimentSpec.from_file(self.spec_path)
        with maybe_span(tracer, "exp.expand"):
            configs = spec.expand()
        runner = SweepRunner(jobs=SWEEP_JOBS, cache=ResultCache(cache_dir),
                             bus=bus, tracer=span_tracer)
        with maybe_span(tracer, "exp.sweep"):
            outcome = runner.run(configs)
        with maybe_span(tracer, "obs.ledger_append"):
            _ledger_append(sweep_record("sweep", spec.name, outcome, started,
                                        time.time()))
        with maybe_span(tracer, "obs.results_write"):
            write_results(spec, outcome, results_dir)
        t1 = perf_counter()

        executed = [r for r in outcome.records if r.status == "ok"]
        problems = []
        half = len(configs) // 2
        if outcome.failed or outcome.cached != len(configs) - half \
                or len(executed) != half:
            problems.append(f"sweep ran {len(executed)} and recalled "
                            f"{outcome.cached} of {len(configs)} points, "
                            f"{outcome.failed} failed")
        extra = {}
        if tracer is not None:
            tracer.import_sweep(span_tracer, parent="exp.sweep")
            sweep_s = tracer.last_span["exp.sweep"]
            extra["exp.worker_busy_frac"] = sum(r.cpu_s for r in executed) / (
                SWEEP_JOBS * (sweep_s[4] - sweep_s[3]))
        return Invocation(
            wall_s=t1 - t0,
            setup_s=marks[ev.SWEEP_BEGIN] - t0,
            engine_s=sum(r.wall_s for r in executed),
            ticks=sum(round(r.result["duration_s"] / TICK_S) for r in executed),
            instructions=sum(r.result["total_executed"] for r in executed),
            points=len(outcome.records),
            digest=digest([r.result for r in outcome.records]),
            problems=problems,
            layer_extra=extra,
            point_walls=[r.wall_s for r in executed],
            payload=outcome.records,
        )

    def verify(self, invocation: Invocation) -> List[str]:
        """Sampled cached and executed points equal a fresh scalar run."""
        records = invocation.payload
        cached = [r for r in records if r.status == "cached"][:self.SAMPLE]
        executed = [r for r in records if r.status == "ok"][:self.SAMPLE]
        return [
            f"{record.status} point {record.index} differs from a fresh "
            f"scalar execution"
            for record in cached + executed
            if digest(scalar_config_result(record.config))
            != digest(record.result)
        ]

    def reference(self) -> str:
        from repro.exp import ExperimentSpec

        configs = ExperimentSpec.from_dict(self.spec_dict()).expand()
        return digest([scalar_config_result(config) for config in configs])


WORKLOADS = {
    cls.name: cls
    for cls in (SimulateWristwatchNVP, SimulateFirNV16, FleetMixed,
                SweepHalfCached)
}
