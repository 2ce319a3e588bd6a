#!/usr/bin/env python3
"""Builds and runs the end-to-end demo benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload demo_mixed --seed 1 --seconds 10 --trace 0

The first run configures and compiles the engine and the driver into
.bench_build/e2e_bench; later runs only re-check the build. Build output
goes to stderr. The driver's stdout ends with one JSON result line.
Extra arguments (--sf, --setups, --read-rate, --append-rate, --calibrate)
pass through to the driver.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("demo_mixed", "point_lookup")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "demo_bench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "e2e_bench")
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "demo_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.getcwd(), ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd + extra)
    # Forward a termination to the driver and wait for it, so no process
    # outlives this one.
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
