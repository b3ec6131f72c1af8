#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

* perfbench_selftest: the same seed gives the same query stream, and the
  oracle check rejects a deliberately corrupted result;
* every metric a run prints is declared in BENCHMARK.json with the same unit,
  and every declared metric is printed, for every workload in both modes
  (one-second runs).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build_dir()
        run.build(cls.bdir)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_selftest(self):
        res = subprocess.run([os.path.join(self.bdir, "perfbench_selftest")],
                             stdout=subprocess.PIPE, text=True)
        self.assertEqual(res.returncode, 0, res.stdout)

    def test_printed_metrics_match_declared(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, cwd=ROOT)
                    self.assertEqual(res.returncode, 0, res.stdout)
                    result = json.loads(res.stdout.strip().split("\n")[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    declared = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
