"""Self-tests of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Covers the percentile rule, self-time arithmetic on a synthetic span
tree, a corrupted reference surfacing as failed ops rather than a crash,
and exact repetition of per-layer counts across two traced runs.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import bootstrap

bootstrap.pin_environment()
bootstrap.use_checkout_source()

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 90))
        self.assertEqual(run.percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.percentile(list(range(999)), 99))
        self.assertEqual(run.percentile(list(range(1000)), 99), 989)
        self.assertIsNone(run.percentile(list(range(19)), 50))
        self.assertEqual(run.percentile(list(range(20)), 50), 9)

    def test_sample_count_is_printed(self):
        median, reported, withheld = run.percentile_notes("op_ms", [1.0] * 100)
        self.assertIn("op_ms.p50 = 1.0 ms (100 samples)", median)
        self.assertIn("100 samples", reported)
        self.assertIn("100 samples, needs 1000", withheld)


def _span(name, start, end, parent=None, op=0):
    return tracing.Span(name, start, end, parent, op, end - start)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            _span(tracing.CALL_SPAN, 0.0, 10.0),  # 0
            _span("mapper.search_model", 1.0, 9.0, parent=0),  # 1
            _span("cache.get", 1.5, 2.0, parent=1),  # 2
            _span("space.unique_candidates", 2.0, 8.0, parent=1),  # 3
            _span("space.enumerate", 2.1, 7.9, parent=3),  # 4: aggregate
        ]
        spans[4].dur = 2.5  # accumulated next() time, not end - start
        own = tracing.self_times(spans)
        for got, want in zip(own, [2.0, 1.5, 0.5, 3.5, 2.5]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(sum(own), spans[0].dur)

    def test_layer_metrics_from_tree(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            _span(tracing.CALL_SPAN, 0.0, 0.010),
            _span("mapper.search_model", 0.001, 0.009, parent=0),
            _span("cache.get", 0.002, 0.006, parent=1),
            _span("workloads.get_model", -1.0, -0.999, op=None),
        ]
        metrics = tracing.layer_metrics(tracer, rounds=1, untraced_call_ms=8.0)
        self.assertAlmostEqual(metrics["mapper.self_ms"], 4.0)
        self.assertAlmostEqual(metrics["cache.get_ms"], 4.0)
        self.assertAlmostEqual(metrics["workloads.build_ms"], 1.0)
        self.assertAlmostEqual(metrics["trace.coverage"], 0.8)
        self.assertAlmostEqual(metrics["trace.named_coverage"], 0.4)
        self.assertAlmostEqual(metrics["trace.overhead_ratio"], 1.25)
        self.assertEqual(set(metrics), set(tracing.PER_LAYER_UNITS))


class CorruptedReference(unittest.TestCase):
    def test_map_mismatch_is_a_failed_op(self):
        bootstrap.WORK_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bootstrap.WORK_DIR) as workdir:
            workload = wl.MapWarm(seed=0, workdir=Path(workdir))
            workload.prepare()
            workload.reference = copy.deepcopy(workload.reference)
            answers = workload.reference["answers"]
            answers["case-study/alexnet"]["energy_pj"] *= 1.0000001
            del answers["simba-like/vgg16"]
            workload.setup()
            result = workload.round(0)
        self.assertEqual(result.attempted, 16)
        self.assertEqual(run.failed_ops([result]), 2)
        failures = "\n".join(result.failures)
        self.assertIn("case-study/alexnet: energy_pj", failures)
        self.assertIn("simba-like/vgg16: no reference answer", failures)

    def test_point_mismatch_is_reported(self):
        table = ref.PointTable(ref.load("sweep-guided")["table"])
        key = next(k for k, answer in table.expected.items() if answer)
        comp, *memory = key.split("|")
        n_p, n_c, lanes, vec = (int(v) for v in comp.split("-"))
        sizes = {field.split(":")[0]: int(field.split(":")[1]) for field in memory}
        hw = SimpleNamespace(
            n_chiplets=n_p, n_cores=n_c, lanes=lanes, vector_size=vec,
            memory=SimpleNamespace(
                a_l1_bytes=sizes["a1"], w_l1_bytes=sizes["w1"],
                o_l1_bytes=sizes["o1"], a_l2_bytes=sizes["a2"],
            ),
        )
        point = SimpleNamespace(
            hw=hw, valid=True, errors=(), chiplet_area_mm2=1.0,
            energy_pj={"alexnet": 1.0}, cycles={"alexnet": 1},
        )
        self.assertIn("answer", table.mismatch(point))
        point.valid, point.errors = False, ("pruned: ...",)
        self.assertIn("reference valid", table.mismatch(point))


class CountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts(self):
        def traced_counts():
            done = subprocess.run(
                [sys.executable, str(bootstrap.BENCH_DIR / "run.py"), "--workload",
                 "map-warm", "--seed", "3", "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, timeout=170, cwd=bootstrap.ROOT,
            )
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertTrue(result["correct"], done.stdout)
            return {
                name: metric["value"] for name, metric in result["metrics"].items()
                if metric["unit"] == "count"
            }

        first, second = traced_counts(), traced_counts()
        self.assertEqual(first, second)
        self.assertGreater(first["cache.disk_hits"], 0)


if __name__ == "__main__":
    unittest.main()
