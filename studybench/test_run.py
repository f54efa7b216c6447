#!/usr/bin/env python3
"""Tests of the study benchmark, at smoke size.

Run from the root of a checkout:

    python3 studybench/test_run.py

Each test calls studybench/run.py --smoke, which builds study_bench
on first use. They check the result line against BENCHMARK.json's
metric names, and that a fixed seed repeats round 0 exactly across
separate processes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        check=True)
    lines = proc.stdout.splitlines()
    digest = None
    for line in lines:
        m = re.match(r"round 0 \(\d+ runs, digest ([0-9a-f]+)\)", line)
        if m:
            digest = m.group(1)
    return json.loads(lines[-1]), digest


class StudyBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, section):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics_and_repeatable_digest(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                first, d1 = run(workload, 5)
                self.check(first, "end_to_end")
                for m in first["metrics"].values():
                    self.assertGreater(m["value"], 0)
                _, d2 = run(workload, 5)
                self.assertIsNotNone(d1)
                self.assertEqual(d1, d2)

    def test_traced_run_prints_every_per_layer_metric(self):
        result, _ = run("inject", 6, trace=1)
        self.check(result, "per_layer")
        self.assertGreater(
            result["metrics"]["core.fiber_calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
