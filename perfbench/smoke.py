"""Smoke tests of the replay benchmark, run at shortened simulated durations.

    python3 perfbench/smoke.py

They prove that every metric BENCHMARK.json names is emitted with its
unit, that a corrupted output file counts as a failed replay, and that
tracing leaves the outputs byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import math
import unittest
from unittest import mock

import run as bench
from tracing import Tracer

# simulated seconds per workload; long enough for LiDAR, map and policy ticks
SHORT = {"slope_replay": 0.5, "stairs_replay": 0.5, "gap_policy": 1.0}
SEED = 3  # pinned digests exist for full-length seed-0 replays only


def quiet_run(workload, trace, seconds=0.0):
    """run_benchmark plus the printed report, with stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        result = bench.run_benchmark(workload, SEED, seconds, trace,
                                     duration=SHORT[workload])
        key = "per_layer" if trace else "end_to_end"
        line = bench.report(result, [m["name"] for m in bench.load_manifest()[key]])
    return result, line


class ManifestTest(unittest.TestCase):
    def test_manifest_matches_spec(self):
        manifest, spec = bench.load_manifest(), bench.load_spec()
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(spec["workloads"]))
        self.assertEqual(list(SHORT), list(spec["workloads"]))
        for w in manifest["workloads"]:
            self.assertEqual(w["why"], spec["workloads"][w["name"]]["why"])
        predicted = [m for p in spec["predictions"] for m in p["metrics"]]
        for m in manifest["per_layer"]:
            self.assertTrue(any(m["name"].startswith(p) for p in predicted), m["name"])


class SmokeTest(unittest.TestCase):
    def assert_emitted(self, line, key):
        expected = {m["name"]: m["unit"] for m in bench.load_manifest()[key]}
        self.assertEqual(set(line["metrics"]), set(expected))
        for name, unit in expected.items():
            value = line["metrics"][name]
            self.assertEqual(value["unit"], unit, name)
            self.assertTrue(math.isfinite(value["value"]), name)

    def test_every_metric_emitted_with_unit(self):
        for workload in SHORT:
            with self.subTest(workload=workload, trace=0):
                result, line = quiet_run(workload, trace=False)
                self.assertTrue(line["correct"])
                self.assert_emitted(line, "end_to_end")
                self.assertEqual(result["metrics"]["replay_fail_ratio"][0], 0.0)
            with self.subTest(workload=workload, trace=1):
                result, line = quiet_run(workload, trace=True)
                self.assertTrue(line["correct"])
                self.assertEqual(result["missing"], [])
                self.assert_emitted(line, "per_layer")

    def test_corrupted_output_counts_as_failed_replay(self):
        pipeline = bench.import_terraforge().pipeline
        run_pipeline, calls = pipeline.run_pipeline, []

        def corrupt_second(cfg, out_dir):
            result = run_pipeline(cfg, out_dir)
            calls.append(out_dir)
            if len(calls) == 2:
                with open(out_dir / "rewards.jsonl", "r+b") as f:
                    f.write(b"#")
            return result

        with mock.patch.object(pipeline, "run_pipeline", corrupt_second):
            result, line = quiet_run("slope_replay", trace=False, seconds=2.0)
        self.assertGreaterEqual(line["attempted"], 3)
        self.assertEqual(line["failed"], 1)
        self.assertFalse(line["correct"])
        bad = [r for r in result["replays"] if r["problems"]]
        self.assertIn("rewards.jsonl", bad[0]["problems"][0])

    def test_tracing_leaves_outputs_byte_identical(self):
        result, line = quiet_run("gap_policy", trace=True)
        reps = result["replays"]
        self.assertEqual({r["traced"] for r in reps}, {False, True})
        self.assertTrue(all(r["digests"] == reps[0]["digests"] for r in reps))
        self.assertEqual(line["failed"], 0)

    def test_missing_wrapper_target_is_reported(self):
        bench.import_terraforge()
        tracer = Tracer()
        gone = ("x.gone", "terraforge.pipeline", "no_such_function", None)
        with tracer.installed(targets=(gone,)):
            pass
        self.assertEqual(tracer.missing, ["terraforge.pipeline:no_such_function"])


if __name__ == "__main__":
    unittest.main()
