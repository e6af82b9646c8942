#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a freshly produced BENCH_<scenario>.json against the committed
baseline and fails when any (algorithm, batch_size) run
  * drops its ops_per_sec below --min-ratio of the baseline (default 0.75,
    i.e. a >25% regression, shape-normalized as described below);
  * grows its peak_memory_bytes above 1.25x the baseline's;
  * drops its quality_vs_greedy below the baseline's minus 0.01; or
  * ends, in any repeat, with a final_solution_size other than the
    baseline's. Every scenario is seeded, so the solution is a pure
    function of the code: a changed size is a behaviour change, however
    small, and a PR that means it regenerates the baseline.
Memory, quality and size are machine-independent (byte counts of the
library's own structures, and solution sizes on a seeded workload), so
those gates compare raw per-run values with no normalization.

Throughput ratios are hardware-sensitive; the committed baselines were
measured on a developer machine while CI runs on shared runners, so the
gate compares *shape*, not absolute speed: each run's raw candidate/
baseline ratio is divided by the median ratio across all runs. A
uniformly slower (or faster) machine shifts every ratio equally and
cancels out, while a regression confined to a minority of runs stands
out against the median — including a regression in the fastest run,
which a fixed-normalizer scheme would hide. A *uniform* slowdown across
most runs is indistinguishable from slower hardware by construction;
pass --absolute to compare raw ops_per_sec when baseline and candidate
come from the same machine.

Also validates the JSON schema the rest of the tooling relies on
(schema_version, positive ops_per_sec / p50 / p99 / memory / solution).

The sharded measurement (`bench_driver --shards N`) is informational and
machine-sensitive in a way the shape normalization cannot cancel (it
depends on the hardware-thread count recorded in `cpu_count`), so the gate
ignores it entirely: the top-level "sharded" object is never compared, and
any run entry carrying a "shards" field is dropped before keying. The
top-level "serving" block (dynmis_loadgen's socket-side measurement, which
rides on connection count and kernel scheduling) gets the same treatment,
as do the "ingest" and "temporal" blocks the workload scenarios emit
(load-time memory budget and stream shape, not engine throughput).

Pass --candidate several times to gate on the best of N repeated runs
(per (algorithm, batch_size) the maximum ops_per_sec is used), which keeps
short reduced-scale CI runs from tripping the gate on scheduler noise. The
memory and quality gates take the worst value any repeat reports, and the
size gate checks every repeat.

Usage:
  check_bench_regression.py --baseline BENCH_hard.json \
      --candidate run1.json --candidate run2.json \
      [--min-ratio 0.75] [--absolute]
"""

import argparse
import json
import sys


REQUIRED_RUN_FIELDS = (
    "algorithm",
    "batch_size",
    "ops_per_sec",
    "latency_p50_us",
    "latency_p99_us",
    "peak_memory_bytes",
    "final_solution_size",
    "quality_vs_greedy",
)

# Machine-independent gates: peak memory may grow by at most this factor,
# and quality_vs_greedy may drop by at most this much, per run.
MAX_MEMORY_RATIO = 1.25
QUALITY_SLACK = 0.01


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    doc.pop("sharded", None)  # Informational blocks: never gated.
    doc.pop("serving", None)
    doc.pop("replication", None)
    doc.pop("ingest", None)  # Load-time memory budget; machine-sensitive.
    doc.pop("temporal", None)  # Stream shape, not a perf measurement.
    runs = [run for run in doc.get("runs") or [] if "shards" not in run]
    doc["runs"] = runs
    if not runs:
        sys.exit(f"{path}: no runs recorded")
    for run in runs:
        for field in REQUIRED_RUN_FIELDS:
            if field not in run:
                sys.exit(f"{path}: run is missing '{field}': {run}")
        for field in ("ops_per_sec", "latency_p50_us", "latency_p99_us",
                      "peak_memory_bytes", "final_solution_size",
                      "quality_vs_greedy"):
            if not run[field] > 0:
                sys.exit(f"{path}: run has non-positive {field}: {run}")
    return doc


def keyed(doc):
    return {(run["algorithm"], run["batch_size"]): run for run in doc["runs"]}


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True, action="append",
                        help="repeat to gate on the best of N runs")
    parser.add_argument("--min-ratio", type=float, default=0.75,
                        help="fail when candidate/baseline falls below this")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw ops_per_sec (same-machine runs)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidates = [load(path) for path in args.candidate]
    for doc, path in zip(candidates, args.candidate):
        if baseline.get("scenario") != doc.get("scenario"):
            sys.exit(
                f"scenario mismatch: baseline={baseline.get('scenario')} "
                f"{path}={doc.get('scenario')}")
    # Merge repeated runs: per key, keep the fastest throughput, the worst
    # memory and quality any repeat observed, and every final size.
    cand_runs = {}
    cand_sizes = {}
    for doc in candidates:
        for key, run in keyed(doc).items():
            cand_sizes.setdefault(key, set()).add(run["final_solution_size"])
            merged = cand_runs.setdefault(key, dict(run))
            merged["ops_per_sec"] = max(merged["ops_per_sec"],
                                        run["ops_per_sec"])
            merged["peak_memory_bytes"] = max(merged["peak_memory_bytes"],
                                              run["peak_memory_bytes"])
            merged["quality_vs_greedy"] = min(merged["quality_vs_greedy"],
                                              run["quality_vs_greedy"])

    base_runs = keyed(baseline)
    shared = sorted(set(base_runs) & set(cand_runs))
    raw = {key: cand_runs[key]["ops_per_sec"] / base_runs[key]["ops_per_sec"]
           for key in shared}
    # Shape normalization: divide by the median raw ratio so a uniform
    # machine-speed shift cancels while minority regressions stand out.
    norm = 1.0 if args.absolute or not raw else median(raw.values())
    if norm <= 0:
        sys.exit("FAIL: degenerate baseline/candidate throughput")

    failures = []
    print(f"{'algorithm':<16} {'batch':>6} {'baseline':>12} {'candidate':>12} "
          f"{'ratio':>7} {'memory':>7} {'quality':>8} {'size':>5}")
    for key, cand in sorted(cand_runs.items()):
        base = base_runs.get(key)
        if base is None:
            print(f"{key[0]:<16} {key[1]:>6} {'(new run)':>12} "
                  f"{cand['ops_per_sec']:>12.0f}      -")
            continue
        ratio = raw[key] / norm
        memory = cand["peak_memory_bytes"] / base["peak_memory_bytes"]
        quality = cand["quality_vs_greedy"] - base["quality_vs_greedy"]
        problems = []
        if ratio < args.min_ratio:
            problems.append(f"ops/s at {ratio:.2f}x")
        if memory > MAX_MEMORY_RATIO:
            problems.append(f"peak memory at {memory:.2f}x")
        if quality < -QUALITY_SLACK:
            problems.append(f"quality_vs_greedy {quality:+.4f}")
        same_size = cand_sizes[key] == {base["final_solution_size"]}
        if not same_size:
            problems.append(
                f"final_solution_size {sorted(cand_sizes[key])} != "
                f"{base['final_solution_size']}")
        flag = "  << REGRESSION" if problems else ""
        print(f"{key[0]:<16} {key[1]:>6} {base['ops_per_sec']:>12.0f} "
              f"{cand['ops_per_sec']:>12.0f} {ratio:>7.2f} {memory:>7.2f} "
              f"{quality:>+8.4f} {'same' if same_size else 'DIFF':>5}{flag}")
        failures += [f"{key[0]} batch={key[1]}: {p}" for p in problems]

    missing = sorted(set(base_runs) - set(cand_runs))
    for key in missing:
        print(f"{key[0]:<16} {key[1]:>6} present in baseline only")
    if missing:
        sys.exit(f"FAIL: {len(missing)} baseline run(s) missing from candidate")
    if failures:
        sys.exit(f"FAIL: {len(failures)} regression(s) against the baseline "
                 f"(ops/s floor {args.min_ratio:.2f}x, memory ceiling "
                 f"{MAX_MEMORY_RATIO:.2f}x, quality slack {QUALITY_SLACK}, "
                 "identical final sizes):"
                 "\n  " + "\n  ".join(failures))
    print(f"OK: all {len(cand_runs)} runs within {args.min_ratio:.2f}x "
          f"ops/s, {MAX_MEMORY_RATIO:.2f}x memory and -{QUALITY_SLACK} "
          f"quality of baseline, with its final sizes")


if __name__ == "__main__":
    main()
