#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload massive-churn --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the library from the checkout's sources) under
.bench_build/, runs the workload, checks its answer, and prints as the last
line of stdout one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run is made twice, untraced then traced
with the same seed, and the metrics are the per-layer ones plus
trace_overhead.<metric> = traced - untraced for every end-to-end metric.
A layer a workload never calls reports 0. Diagnostics (host steal, context
switches, CPU per thread group, generator lag) go to stderr.

The workload process and all its threads run on one vCPU (the highest one
this process may use) under SCHED_BATCH; README.md, "Noise", gives the
measurements behind that choice.

--tiny and --corrupt are passed through for the benchmark's own tests.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_workload(args, trace):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--workdir", WORKDIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    cpu = max(os.sched_getaffinity(0))

    def one_cpu_batch():
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S,
                          preexec_fn=one_cpu_batch)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def pick(values, specs, fill_missing):
    """Selects `specs` from a {name: {value, unit}} map, in spec order."""
    out = {}
    for spec in specs:
        entry = values.get(spec["name"])
        if entry is None:
            if not fill_missing:
                return None
            entry = {"value": 0, "unit": spec["unit"]}
        if entry["unit"] != spec["unit"]:
            log("unit mismatch for %s: %s" % (spec["name"], entry["unit"]))
            return None
        out[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    if not build():
        log("build failed")
        return 1

    untraced = run_workload(args, trace=False)
    if untraced is None:
        return 1
    end_to_end = pick(untraced["metrics"], spec["end_to_end"], fill_missing=False)
    if end_to_end is None:
        log("the run did not report every end-to-end metric")
        return 1
    runs = [untraced]
    if args.trace:
        traced = run_workload(args, trace=True)
        if traced is None:
            return 1
        runs.append(traced)
        traced_e2e = pick(traced["metrics"], spec["end_to_end"], fill_missing=False)
        if traced_e2e is None:
            return 1
        layers = dict(traced["layers"])
        for name, entry in end_to_end.items():
            layers["trace_overhead." + name] = {
                "value": traced_e2e[name]["value"] - entry["value"],
                "unit": entry["unit"]}
        metrics = pick(layers, spec["per_layer"], fill_missing=True)
        if metrics is None:
            return 1
    else:
        metrics = end_to_end

    for run in runs:
        log("diagnostics:", json.dumps(run["diagnostics"]))
        for problem in run["problems"]:
            log("check failed:", problem)
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
