#!/usr/bin/env python3
"""Tests of compare.py on synthetic result sets."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "wall_p50_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "items_per_s", "unit": "items/s", "better": "higher",
         "bound": 0.10},
    ],
}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.spec = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)
        self.count = 0

    def tearDown(self):
        self.tmp.cleanup()

    def sets(self, walls, failed=0, makespan=1.0):
        """One result file per wall time; items_per_s follows the wall."""
        paths = []
        for wall in walls:
            self.count += 1
            path = os.path.join(self.tmp.name, f"set{self.count}.json")
            metrics = {
                "wall_p50_s": {"value": wall, "unit": "s"},
                "items_per_s": {"value": 1000.0 / wall, "unit": "items/s"},
                "sim_makespan_s": {"value": makespan, "unit": "sim_s"},
            }
            with open(path, "w") as f:
                json.dump({"workloads": {"w": {
                    "attempted": 100, "failed": failed,
                    "metrics": metrics}}}, f)
            paths.append(path)
        return paths

    def run_compare(self, parent, change, *extra):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = compare.main(["--parent", *parent, "--change", *change,
                                   "--benchmark", self.spec, *extra])
        verdicts = {}
        for line in out.getvalue().splitlines():
            fields = line.split()
            if fields[0] == "w":
                verdicts[fields[1]] = fields[2]
        return status, verdicts, out.getvalue()

    def test_same_distribution_is_ok(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        status, v, _ = self.run_compare(self.sets(base), self.sets(base))
        self.assertEqual(status, 0)
        self.assertEqual(v["wall_p50_s"], "ok")
        self.assertEqual(v["items_per_s"], "ok")
        self.assertEqual(v["error_rate"], "ok")
        self.assertEqual(v["sim_makespan_s"], "ok")

    def test_worse_beyond_bound_regresses(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        slow = [w * 1.2 for w in base]
        status, v, _ = self.run_compare(self.sets(base), self.sets(slow))
        self.assertEqual(status, 1)
        self.assertEqual(v["wall_p50_s"], "regressed")
        self.assertEqual(v["items_per_s"], "regressed")

    def test_worse_within_bound_is_ok(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        slow = [w * 1.05 for w in base]
        status, v, _ = self.run_compare(self.sets(base), self.sets(slow))
        self.assertEqual(status, 0)
        self.assertEqual(v["wall_p50_s"], "ok")

    def test_noisy_parent_is_unresolved(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        status, v, _ = self.run_compare(self.sets(noisy),
                                        self.sets([1.5, 1.5, 1.5]))
        self.assertEqual(v["wall_p50_s"], "unresolved")
        self.assertEqual(status, 0)

    def test_noisy_parent_beaten_by_every_run_is_ok(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        _, v, _ = self.run_compare(self.sets(noisy),
                                   self.sets([0.5, 0.55, 0.6]))
        self.assertEqual(v["wall_p50_s"], "ok")

    def test_more_failures_regress(self):
        base = [1.0, 1.0, 1.0]
        status, v, _ = self.run_compare(self.sets(base),
                                        self.sets(base, failed=1))
        self.assertEqual(status, 1)
        self.assertEqual(v["error_rate"], "regressed")

    def test_simulated_metrics_are_exact(self):
        base = [1.0, 1.0, 1.0]
        status, v, _ = self.run_compare(self.sets(base),
                                        self.sets(base, makespan=1.0 + 1e-12))
        self.assertEqual(status, 1)
        self.assertEqual(v["sim_makespan_s"], "regressed")
        _, v, _ = self.run_compare(self.sets(base),
                                   self.sets(base, makespan=0.5))
        self.assertEqual(v["sim_makespan_s"], "improved")

    def test_claim_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
        faster = [w * 0.8 for w in parent]
        status, _, out = self.run_compare(self.sets(parent), self.sets(faster),
                                          "--claim", "w:wall_p50_s")
        self.assertEqual(status, 0)
        self.assertIn("holds", out)

        # 8 wins of 10: not met.
        mixed = faster[:8] + [w * 1.1 for w in parent[8:]]
        status, _, out = self.run_compare(self.sets(parent), self.sets(mixed),
                                          "--claim", "w:wall_p50_s")
        self.assertEqual(status, 1)
        self.assertIn("NOT MET", out)

        # Every pair won, but by less than the parent's IQR: not met.
        tiny = [w - 0.001 for w in parent]
        status, _, out = self.run_compare(self.sets(parent), self.sets(tiny),
                                          "--claim", "w:wall_p50_s")
        self.assertEqual(status, 1)
        self.assertIn("NOT MET", out)

    def test_claim_needs_ten_pairs(self):
        parent = [1.0] * 5
        status, _, out = self.run_compare(self.sets(parent),
                                          self.sets([0.5] * 5),
                                          "--claim", "w:wall_p50_s")
        self.assertEqual(status, 1)
        self.assertIn("need >= 10 pairs", out)

    def test_missing_file_is_a_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            status = compare.main(["--parent", "/nonexistent.json",
                                   "--change", "/nonexistent.json",
                                   "--benchmark", self.spec])
        self.assertEqual(status, 2)


if __name__ == "__main__":
    unittest.main()
