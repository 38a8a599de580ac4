#!/usr/bin/env python3
"""Run one workload of the benchmark N times and print each metric's
median and interquartile range; with --other, alternate the runs with a
second checkout (another build of the code) on the same seeds.

Usage, from the root of a checkout:

    python3 benchmark/compare.py --workload hot_batch --runs 10
    python3 benchmark/compare.py --workload cold_fanout --runs 10 \
        --other ../parent-checkout

Run i uses seed i (1..N) on both sides; the side that goes first
alternates from pair to pair. The command comes from each checkout's
BENCHMARK.json, so both sides run their own benchmark build for their
own run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, IQR as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--other", help="a second checkout to alternate with")
    args = ap.parse_args()

    sides = {"this": "."}
    if args.other:
        sides["other"] = args.other
    results = {name: [] for name in sides}
    for i in range(args.runs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for name in order:
            r = run_once(sides[name], args.workload, i + 1, args.trace)
            results[name].append(r)
            print(f"[{name}] seed {i + 1}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)

    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"== {name} ({sides[name]}): {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
        print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(vals)
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"{metric:<34} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {rel:>8.4f} {unit}")
    if args.other:
        print("== median change, this vs other")
        for metric in results["this"][0]["metrics"]:
            a = statistics.median(r["metrics"][metric]["value"] for r in results["this"])
            b = statistics.median(r["metrics"][metric]["value"] for r in results["other"])
            change = (a - b) / abs(b) if b else float("nan")
            print(f"{metric:<34} {change:>+8.4f}")


if __name__ == "__main__":
    main()
