"""Self-test of the benchmark at tiny input sizes (about a minute).

Run from the repository root::

    python3 nvpbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import run

sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import scenarios  # noqa: E402

SEED = 3


def measure(name: str, trace: bool, reference=None):
    return run.run_isolated(run.measure, name, SEED, 0.01, trace,
                            size=scenarios.TINY, reference=reference)


class EndToEndTest(unittest.TestCase):
    def test_every_metric_for_every_workload(self):
        names = [name for name, _ in run.END_TO_END]
        for workload in scenarios.WORKLOADS:
            with self.subTest(workload=workload):
                result = measure(workload, trace=False)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"],
                                        run.MIN_INVOCATIONS)
                self.assertEqual(list(result["metrics"]), names)
                for key, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, key)
                    self.assertEqual(metric["unit"],
                                     dict(run.END_TO_END)[key])

    def test_tampered_reference_digest_fails_every_invocation(self):
        result = measure("simulate_wristwatch_nvp", trace=False,
                         reference="0" * 64)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])


class TracedTest(unittest.TestCase):
    #: A layer metric each workload exists to stress.
    STRESSED = {
        "simulate_wristwatch_nvp": "core.outage_cycles",
        "simulate_fir_nv16": "isa.block_run_calls",
        "fleet_mixed": "fleet.charge_tick_s",
        "sweep_half_cached": "exp.cache_put_s",
    }

    def test_layers(self):
        names = [name for name, _ in layers.PER_LAYER]
        for workload in scenarios.WORKLOADS:
            with self.subTest(workload=workload):
                result = measure(workload, trace=True)
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), names)
                self.assertGreater(
                    result["metrics"][self.STRESSED[workload]]["value"], 0)
                self.assertTrue(result["layers"])
                for values in result["layers"]:
                    total = sum(values[key] for key in layers.TIMELINE_METRICS)
                    self.assertLessEqual(
                        total, values["bench.traced_wall_s"] * (1 + 1e-9))

    def test_fleet_bypasses_charge_many(self):
        result = measure("fleet_mixed", trace=True)
        self.assertEqual(
            result["metrics"]["storage.charge_many_calls"]["value"], 0)


class DescriptionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(cls.name, cls.why) for cls in scenarios.WORKLOADS.values()])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(layers.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
