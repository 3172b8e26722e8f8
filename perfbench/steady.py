#!/usr/bin/env python3
"""Runs each workload several times, one seed per run, and prints every
metric's median and quartile spread, the attempted and failed operations
per workload, and the bound that spread supports.

    python3 perfbench/steady.py --runs 10 --seed 1000 [--workloads a,b]

Run from the root of the repository. The spread of a metric is the
distance between the first and third quartile of its values
(`statistics.quantiles(values, n=4)`) as a share of their median. The
suggested bound is three times the spread, rounded up to a hundredth and
at most 0.25.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    parser.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in workloads:
        results = [run_once(workload, args.seed + i, seconds) for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"correct={correct}, attempted={attempted}, failed={failed}, "
              f"failed share per run={shares}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'suggest':>8}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if args.runs < 2:
                print(f"  {name:<34} {values[0]:>12.5g} {unit}")
                continue
            med, q1, q3, s = spread(values)
            suggest = min(0.25, math.ceil(3 * s * 100) / 100) if math.isfinite(s) else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  <- spread above a third of the bound"
            print(f"  {name:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.4f} "
                  f"{bound if bound is not None else '-':>6} {suggest:>8.2f} {unit}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
