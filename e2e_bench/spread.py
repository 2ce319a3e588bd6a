#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 e2e_bench/spread.py --workload demo_mixed --seeds 1 2 3 4 5

For every metric it prints the median, the quartiles and the
interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "e2e_bench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d (%.1f s)" % (
            seed, result["correct"], result["attempted"], result["failed"],
            time.time() - t0))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-32s %10s %10s %10s %8s %6s  values" % (
        "metric", "q1", "median", "q3", "iqr/med", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        rel = (q3 - q1) / med if med else float("nan")
        print("%-32s %10.4g %10.4g %10.4g %8.3f %6s  %s" % (
            name, q1, med, q3, rel, bounds.get(name, ""),
            " ".join("%.4g" % v for v in vs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
