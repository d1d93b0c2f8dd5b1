#!/usr/bin/env python3
"""Runs one workload over several seeds and prints the spread of each metric.

Usage, from the root of the checkout:

    python3 e2ebench/spread.py --workload serve_road --runs 10 --first-seed 1

Each run is `run.py --workload W --seed S --seconds T --trace 0` with
S = first-seed, first-seed + 1, ... and T the run_seconds of BENCHMARK.json.
For every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound. Every run must pass its output checks. --jsonl
appends each run's result line to a file, for comparing two sets of runs
later.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"seed {seed}: output check failed: {lines[-1]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--jsonl", help="append each result line here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, spec["run_seconds"])
        if args.jsonl:
            with open(args.jsonl, "a") as out:
                out.write(json.dumps({"workload": args.workload,
                                      "seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={values[n][-1]:.6g}" for n in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else \
            (vals[0], None, vals[0])
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{m['name']:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6}")


if __name__ == "__main__":
    main()
