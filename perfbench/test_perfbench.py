#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that every run reports every metric name with its unit, that the
answer check trips on a deliberately corrupted solution, and that the
benchmark fails cleanly where the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertEqual(set(result.keys()),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual([m["name"] for m in specs],
                         list(result["metrics"].keys()))
        for m in specs:
            entry = result["metrics"][m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertIsInstance(entry["value"], (int, float), m["name"])

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_runs_report_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                self.check_metrics(result, SPEC["per_layer"])

    def test_answer_check_trips_on_corrupted_solution(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, "--trace", "0", "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertFalse(result_of(proc)["correct"])
                self.assertIn("not maximal", proc.stderr)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
