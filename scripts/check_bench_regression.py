#!/usr/bin/env python3
"""Compare a Google-Benchmark JSON run against a committed baseline.

Report-only by default: emits GitHub Actions ::warning annotations for
benchmarks whose real_time regressed by more than the threshold (default
15%), plus a human-readable table, and exits 0 — CI perf numbers on shared
runners are too noisy to block merges on, the annotations are a prompt to
look, not a gate. Pass --fail-on-regression to opt into exit code 1 when
any benchmark crosses the threshold (for dedicated runners or local
pre-merge checks where timings are trustworthy).

User counters with a declared direction are diffed the same way, since a
claim usually rests on a counter, not on real_time:
  lower is better   names ending in _us (so also _p50_us, _p99_us) or
                    containing _us_per_ (microseconds per unit of work);
  higher is better  names starting with speedup_, or ending in _avoided
                    (work an index or a fused path skipped, such as
                    index_scans_avoided).
Counters without a declared direction (row counts, commits, ...) are not
compared.

A run with repetitions is compared by its median: when a file holds
median aggregate rows (--benchmark_repetitions=N, with or without
--benchmark_report_aggregates_only=true), each benchmark's median
real_time and median counters stand for it, and its per-repetition rows
are ignored. Files without medians compare their single rows.

Usage: check_bench_regression.py BASELINE.json CURRENT.json
           [--threshold 0.15] [--fail-on-regression]
"""

import argparse
import json
import sys

UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

# Keys of a benchmark entry that are not user counters.
NON_COUNTER_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "error_occurred",
    "error_message", "aggregate_name", "aggregate_unit", "big_o", "rms",
}


def direction(counter):
    """'lower', 'higher', or None when the counter declares no direction."""
    if counter.endswith("_us") or "_us_per_" in counter:
        return "lower"
    if counter.startswith("speedup_") or counter.endswith("_avoided"):
        return "higher"
    return None


def load(path):
    """(benchmark -> real_time ns, (benchmark, counter) -> value).

    Medians of repeated runs replace the per-repetition rows (see above);
    other aggregates (mean, stddev, cv) are skipped.
    """
    with open(path) as f:
        doc = json.load(f)
    rows = {}     # benchmark -> single (or last repetition's) row
    medians = {}  # benchmark -> median aggregate row
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = b
            continue
        rows[b["name"]] = b
    rows.update(medians)
    times = {}
    counters = {}
    for name, b in rows.items():
        times[name] = b["real_time"] * UNIT_NS.get(b.get("time_unit", "ns"), 1)
        for key, value in b.items():
            if key in NON_COUNTER_KEYS or not isinstance(value, (int, float)):
                continue
            if direction(key) is not None:
                counters[(name, key)] = float(value)
    return times, counters


def worsening(base, cur, better):
    """Relative change in the bad direction (positive = worse)."""
    if base == 0:
        return 0.0
    change = (cur - base) / abs(base)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="regression ratio that triggers a warning")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 (instead of warning only) when any "
                             "benchmark regresses beyond the threshold")
    args = parser.parse_args()

    try:
        base, base_counters = load(args.baseline)
    except OSError:
        # Not silent: a bench wired into the gate without a committed
        # baseline compares against nothing, which reads as "pass" forever.
        print(f"NO BASELINE COMMITTED for {args.current}: "
              f"{args.baseline} does not exist, so this run was NOT checked "
              f"for regressions.")
        print(f"To enable the diff, run the benchmark once on a quiet "
              f"machine and commit its JSON as {args.baseline}.")
        print(f"::warning::no baseline committed at {args.baseline}; "
              f"{args.current} was not checked for regressions")
        return 0
    cur, cur_counters = load(args.current)

    regressions = []
    rows = []
    for name, base_ns in sorted(base.items()):
        cur_ns = cur.get(name)
        if cur_ns is None:
            rows.append((name, base_ns, None, None))
            continue
        ratio = (cur_ns - base_ns) / base_ns if base_ns > 0 else 0.0
        rows.append((name, base_ns, cur_ns, ratio))
        if ratio > args.threshold:
            regressions.append((name, base_ns, cur_ns, ratio))

    print(f"{'benchmark':<50} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name, base_ns, cur_ns, ratio in rows:
        if cur_ns is None:
            print(f"{name:<50} {base_ns / 1e6:>10.3f}ms {'absent':>12} {'':>8}")
        else:
            print(f"{name:<50} {base_ns / 1e6:>10.3f}ms {cur_ns / 1e6:>10.3f}ms "
                  f"{ratio:>+7.1%}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<50} {'(new)':>12} {cur[name] / 1e6:>10.3f}ms")

    counter_regressions = []
    if base_counters:
        print(f"\n{'counter':<70} {'better':>6} {'baseline':>12} "
              f"{'current':>12} {'delta':>8}")
    for (name, counter), base_v in sorted(base_counters.items()):
        better = direction(counter)
        label = f"{name} {counter}"
        cur_v = cur_counters.get((name, counter))
        if cur_v is None:
            print(f"{label:<70} {better:>6} {base_v:>12.4g} {'absent':>12}")
            continue
        worse = worsening(base_v, cur_v, better)
        change = (cur_v - base_v) / abs(base_v) if base_v else 0.0
        print(f"{label:<70} {better:>6} {base_v:>12.4g} {cur_v:>12.4g} "
              f"{change:>+7.1%}")
        if worse > args.threshold:
            counter_regressions.append((name, counter, better, base_v, cur_v,
                                        change))

    for name, base_ns, cur_ns, ratio in regressions:
        # Spell out which number is which: the annotation is all a reviewer
        # sees without downloading the JSON artifacts.
        print(f"::warning::perf regression {name}: candidate "
              f"{cur_ns / 1e6:.3f}ms is {ratio:+.1%} vs baseline "
              f"{base_ns / 1e6:.3f}ms (threshold {args.threshold:.0%})")
    for name, counter, better, base_v, cur_v, change in counter_regressions:
        print(f"::warning::counter regression {name} {counter} "
              f"({better} is better): candidate {cur_v:.4g} is {change:+.1%} "
              f"vs baseline {base_v:.4g} (threshold {args.threshold:.0%})")
    total = len(regressions) + len(counter_regressions)
    if total == 0:
        print(f"\nno regressions beyond {args.threshold:.0%}")
    if total and args.fail_on_regression:
        print(f"::error::{total} benchmark(s) or counter(s) regressed beyond "
              f"{args.threshold:.0%} and --fail-on-regression is set")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
