#!/usr/bin/env python3
"""Steadiness helper: runs one workload of the benchmark N times and
prints each metric's median, quartiles and spread.

    python3 stagebench/steady.py --workload serve_cold --seed 7 --runs 5
    python3 stagebench/steady.py --workload sweep_batch --seed 1 --runs 10 --vary-seed

Run from the repository root. By default every run uses the same seed;
--vary-seed uses seed, seed+1, ... instead. The spread of a metric is
(q3 - q1) / median with quartiles from statistics.quantiles(n=4); for
end-to-end metrics it is printed next to the metric's bound from
BENCHMARK.json. Every run's value follows on the next line. Each run
measures for BENCHMARK.json's run_seconds. Exits non-zero if a run
fails, reports itself incorrect or misses a metric BENCHMARK.json
names.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    values = {m["name"]: [] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    ok = True
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"run {i} (seed {seed}) is incorrect: {result['failed']} of {result['attempted']} failed")
            ok = False
        for name in values:
            metric = result["metrics"].get(name)
            if metric is None or metric["unit"] != units[name]:
                print(f"run {i} (seed {seed}) lacks metric {name}")
                ok = False
                continue
            values[name].append(metric["value"])
        print(f"run {i} seed {seed}: ok, {result['attempted']} attempted, {result['failed']} failed",
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, seconds {seconds}, "
          f"{'seeds from ' if args.vary_seed else 'seed '}{args.seed}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
        print("    " + " ".join(f"{x:.6g}" for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
