#!/usr/bin/env python3
"""One-off sweep for choosing demo_mixed's read mix and fixed rates.

Usage (from the repository root):

    python3 e2e_bench/sweep.py [--seconds 10] [--seed 1]

Part 1 measures each of SQ1-SQ7 alone on the idle server (median wire
round trip, closed loop on one connection) and prints the mix that gives
every query the same share of server time: weights proportional to
1 / cost.

Part 2 runs demo_mixed at several fixed read rates and reports, per
rate, the p99 of every read class and whether the load generator kept
up (achieved rate within 2% of the offered rate and a valid run). The
highest rate whose point_p99_us stays under LIMIT_POINT_P99_US with no
backlog is the demo's read capacity at that limit.

Part 3 measures ingest capacity: demo_mixed with its update stream
offered far faster than it can commit, so the achieved batch rate is
the capacity of the append path with every dashboard subscribed and the
demo's reads running beside it.

demo_mixed offers CAPACITY_SHARE of both capacities. The sweep is not
part of a benchmark run; README.md records its output and the choice.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READ_RATES = (1000, 2000, 4000, 6000, 8000)
LIMIT_POINT_P99_US = 50000.0
CAPACITY_SHARE = 1.0 / 6


def run(seed, seconds, extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2e_bench", "run.py"),
         "--workload", "demo_mixed", "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", "--setups", "1"] + extra,
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed:\n" + proc.stderr[-2000:])
    return proc


def summary(proc):
    for line in proc.stderr.splitlines():
        if line.startswith("summary: "):
            return json.loads(line[len("summary: "):])
    sys.exit("no summary line:\n" + proc.stderr[-2000:])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cal = json.loads(run(args.seed, args.seconds,
                         ["--calibrate", "1"]).stdout.strip().splitlines()[-1])
    print("per-query cost alone on the idle server (median wire round trip)")
    print("%6s %12s %10s" % ("query", "cost_us", "mix_%"))
    for q, (c, m) in enumerate(zip(cal["cost_us"], cal["mix_percent"])):
        print("%6s %12.1f %10.3f" % ("SQ%d" % (q + 1), c, m))

    print("demo_mixed read-rate sweep (point_p99_us limit %.0f us)" %
          LIMIT_POINT_P99_US)
    print("%8s %10s %14s %16s %12s %8s" % (
        "offered", "achieved", "point_p99_us", "traverse_p99_us",
        "scan_p99_us", "ok"))
    best = None
    for rate in READ_RATES:
        s = summary(run(args.seed, args.seconds, ["--read-rate", str(rate)]))
        kept_up = s["valid"] and s["read_qps"] >= 0.98 * rate
        ok = kept_up and s["point_p99_us"] <= LIMIT_POINT_P99_US
        if ok:
            best = rate
        print("%8d %10.1f %14.0f %16.0f %12.0f %8s" % (
            rate, s["read_qps"], s["point_p99_us"], s["traverse_p99_us"],
            s["scan_p99_us"], "yes" if ok else "no"))
    print("highest read rate meeting the limit: %s" % best)

    s = summary(run(args.seed, args.seconds, ["--append-rate", "1000"]))
    ingest = s["batches_appended"] / args.seconds
    print("ingest capacity: %.1f batches/s (%d batches in %.0f s, "
          "append_p99_us %.0f)" % (ingest, s["batches_appended"],
                                   args.seconds, s["append_p99_us"]))
    if best is not None:
        print("demo_mixed at %.3f of capacity: %.0f reads/s, %.1f batches/s"
              % (CAPACITY_SHARE, best * CAPACITY_SHARE,
                 ingest * CAPACITY_SHARE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
