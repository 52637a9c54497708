"""nvpsim benchmark: four user-command workloads, end to end and per layer.

Usage (from the repository root)::

    python3 nvpbench/run.py --workload simulate_wristwatch_nvp --seed 1 \\
        --seconds 10 --trace 0
    python3 nvpbench/run.py --all --seconds 10 --trace 0   # every workload
    python3 nvpbench/run.py --all --seconds 10 --trace 1   # layer table
    python3 nvpbench/run.py --reference [--workload W]     # pin digests

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced pass (see ``nvpbench/README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Seeds whose scalar-reference digests are committed in reference.json.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
#: Fresh-interpreter imports timed per run for ``setup_s``.
IMPORT_SAMPLES = 5
MIN_INVOCATIONS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("instr_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


#: Host seconds the calibration loop takes at the nominal host speed;
#: reported timings are scaled to that speed (README "Steadiness").
CALIBRATION_S = 0.1
_CALIBRATION_PROGRAM = tuple((i % 5, i % 8, (i * 3) % 8) for i in range(64))


def calibrate() -> float:
    """Host seconds for a fixed interpreter-style pure-Python loop.

    The loop is the benchmark's own code, so it measures how fast the
    host runs Python right now, independent of the simulator.
    """
    start = time.perf_counter()
    regs = [0] * 8
    memory = {}
    acc = 0.0
    for _ in range(12_000):
        for op, a, b in _CALIBRATION_PROGRAM:
            if op == 0:
                regs[a] = (regs[a] + regs[b] + 1) & 0xFFFF
            elif op == 1:
                memory[regs[a] & 63] = regs[b]
            elif op == 2:
                regs[b] = memory.get(regs[a] & 63, 0)
            elif op == 3:
                acc += regs[a] * 1e-3
            else:
                regs[a] = (regs[a] * 3) & 0xFFFF
    return time.perf_counter() - start


def _median(values):
    return statistics.median(values) if values else 0.0


def import_seconds(samples: int) -> float:
    """Median time of ``import repro.cli`` in a fresh interpreter.

    Each sample is scaled to the nominal host speed by the calibration
    runs on either side of it.  One untimed import first writes the
    bytecode caches, which a user pays only once per checkout.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", "import repro.cli"]
    times = []
    before = calibrate()
    for index in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = calibrate()
        if index:
            times.append(elapsed * 2 * CALIBRATION_S / (before + after))
        before = after
    return _median(times)


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _loop(workload, seconds: float, tracer=None):
    """Closed loop: invocations until ``seconds`` pass (at least three)."""
    import layers

    invocations, layer_values = [], []
    began = time.perf_counter()
    before = calibrate()
    while (len(invocations) < MIN_INVOCATIONS
           or time.perf_counter() - began < seconds):
        if tracer is None:
            invocation = workload.invoke()
        else:
            tracer.start_invocation()
            patches = (layers.instrument(tracer) if workload.patch_in_process
                       else contextlib.nullcontext())
            with patches, tracer.span(layers.ROOT):
                invocation = workload.invoke(tracer)
            root = tracer.last_span[layers.ROOT]
            layer_values.append(layers.invocation_layers(
                tracer, root[4] - root[3], invocation.layer_extra))
        after = calibrate()
        invocation.host_factor = (before + after) / (2 * CALIBRATION_S)
        before = after
        if invocations:
            # Only the first invocation's outputs are re-checked; keeping
            # the rest would make peak memory grow with the run length.
            invocation.payload = None
        invocations.append(invocation)
    return invocations, layer_values


def load_reference(workload: str, seed: int):
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def measure(name: str, seed: int, seconds: float, trace: bool,
            size=None, reference=None, workdir=None):
    """One benchmark run of workload ``name``; returns the result object.

    ``reference`` is the expected scalar-reference digest; ``None``
    reads the committed one for this seed, or computes it when none
    is committed.  The returned dict also carries ``invocations`` and
    ``layers`` (per traced invocation) for the self-test.
    """
    import layers
    import scenarios

    size = size or scenarios.FULL
    workload = scenarios.WORKLOADS[name](seed, size, workdir)
    workload.prepare()
    setup_import = import_seconds(IMPORT_SAMPLES) if not trace else 0.0
    workload.invoke()  # warm-up: imports, numpy, page cache
    tracer = None
    if trace:
        plain, _ = _loop(workload, seconds / 2)
        tracer = layers.Tracer()
        traced, layer_values = _loop(workload, seconds / 2, tracer)
        invocations = plain + traced
    else:
        invocations, layer_values = _loop(workload, seconds)
    peak_rss = _peak_rss_mb()

    # -- correctness gate ----------------------------------------------
    if reference is None and size is scenarios.FULL:
        reference = load_reference(name, seed)
    if reference is None and workload.reference_per_run:
        reference = workload.reference()
    # Without a reference digest (fleet and sweep on an unpinned seed)
    # every invocation must repeat the first one, and verify() re-runs
    # a sample of points on the scalar path.
    reference = reference or invocations[0].digest
    problems = workload.verify(invocations[0])
    for problem in problems:
        print(f"check  : {problem}", file=sys.stderr)
    failed = 0
    for index, invocation in enumerate(invocations):
        bad = list(invocation.problems)
        if invocation.digest != reference:
            bad.append(f"digest {invocation.digest[:16]} != reference "
                       f"{reference[:16]}")
        if bad or problems:
            failed += 1
        for problem in bad:
            print(f"check  : invocation {index}: {problem}", file=sys.stderr)

    if trace:
        metrics_values = layers.median_layers(layer_values)
        points = [w for inv in invocations for w in inv.point_walls]
        if points:
            quartiles = statistics.quantiles(points, n=10)
            metrics_values["exp.point_p50_s"] = _median(points)
            metrics_values["exp.point_p90_s"] = quartiles[-1]
            metrics_values["exp.point_samples"] = float(len(points))
        metrics_values["bench.trace_overhead"] = (
            _median([inv.wall_s for inv in traced])
            / _median([inv.wall_s for inv in plain])
        )
        units = dict(layers.PER_LAYER)
        span_dir = os.path.join(ROOT, ".nvpbench")
        os.makedirs(span_dir, exist_ok=True)
        tracer.write(os.path.join(span_dir, f"spans-{name}-{seed}.json"))
    else:
        # Host time scaled to the nominal host speed by the calibration
        # runs around each invocation (see README.md, "Steadiness").
        metrics_values = {
            "wall_s": _median([i.wall_s / i.host_factor for i in invocations]),
            "setup_s": setup_import + _median(
                [i.setup_s / i.host_factor for i in invocations]),
            "ticks_per_s": _median(
                [i.ticks / i.engine_s * i.host_factor for i in invocations]),
            "instr_per_s": _median(
                [i.instructions / i.engine_s * i.host_factor
                 for i in invocations]),
            "points_per_s": _median(
                [i.points / i.wall_s * i.host_factor for i in invocations]),
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics_values.items()
        },
        "invocations": invocations,
        "layers": layer_values,
    }


def run_isolated(function, *args, **kwargs):
    """Run with cache, ledger and temp files in a fresh directory here."""
    scratch = os.path.join(ROOT, ".nvpbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    saved = {key: os.environ.get(key)
             for key in ("REPRO_CACHE_DIR", "REPRO_LEDGER_DIR", "TMPDIR")}
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        return function(*args, workdir=workdir, **kwargs)
    finally:
        tempfile.tempdir = None
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it


def _print_human(name: str, result) -> None:
    attempted = result["attempted"]
    invocations = result["invocations"]
    print(f"{name}: {attempted} invocation(s), failed_frac "
          f"{result['failed'] / attempted:.3g}, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    print(f"  host: median wall {_median([i.wall_s for i in invocations]):.4g}"
          f" s unscaled, speed factor "
          f"{_median([i.host_factor for i in invocations]):.3f} (calibration "
          f"loop / {CALIBRATION_S * 1e3:.0f} ms)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<32} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter; one markdown table."""
    import scenarios

    columns, status = [], 0
    for name in scenarios.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        columns.append((name, result))
        status |= not result["correct"]
    names = list(columns[0][1]["metrics"])
    print("| metric | unit | " + " | ".join(n for n, _ in columns) + " |")
    print("|---|---|" + "---|" * len(columns))
    for key in names:
        unit = columns[0][1]["metrics"][key]["unit"]
        cells = " | ".join(f"{r['metrics'][key]['value']:.4g}"
                           for _, r in columns)
        print(f"| `{key}` | {unit} | {cells} |")
    print("| failed_frac | ratio | " + " | ".join(
        f"{r['failed'] / r['attempted']:.3g}" for _, r in columns) + " |")
    print("| invocations | count | " + " | ".join(
        str(r["attempted"]) for _, r in columns) + " |")
    if trace:
        _print_shares(columns)
    return status


def _print_shares(columns) -> None:
    """Each workload's largest self times, as shares of the traced wall."""
    import layers

    print()
    for name, result in columns:
        values = {key: metric["value"]
                  for key, metric in result["metrics"].items()}
        wall = values["bench.traced_wall_s"]
        top = sorted(layers.TIMELINE_METRICS, key=values.get, reverse=True)
        shares = ", ".join(f"`{key}` {values[key] / wall:.0%}"
                           for key in top[:6] if values[key] > 0)
        print(f"- `{name}` ({wall:.3g} s traced): {shares}")


def record_reference(names) -> int:
    """Pin the scalar-reference digests of ``names`` for the two seeds."""
    import scenarios

    try:
        with open(REFERENCE_PATH) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}

    def compute(workdir):
        for name in names:
            cls = scenarios.WORKLOADS[name]
            table[name] = {}
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                workload = cls(seed, scenarios.FULL, workdir)
                table[name][str(seed)] = workload.reference()
                print(f"{name} seed {seed}: {table[name][str(seed)]}",
                      file=sys.stderr)

    run_isolated(compute)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--reference", action="store_true",
                        help="record the scalar-reference digests")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scenarios

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None and args.workload not in scenarios.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(scenarios.WORKLOADS)}")
    if args.reference:
        return record_reference(
            [args.workload] if args.workload else list(scenarios.WORKLOADS))
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload, --all or --reference is required")
    try:
        result = run_isolated(measure, args.workload, args.seed,
                              args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    _print_human(args.workload, result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
