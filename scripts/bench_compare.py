#!/usr/bin/env python3
"""Diff two google-benchmark JSON result files and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
    bench_compare.py --self-test

Benchmarks are matched by run name. Files recorded with
--benchmark_repetitions hold one row per repetition under the same name;
the `median` aggregate row stands for them when present, else the median
of the repetition rows. For each pair the wall time (`real_time`)
and throughput (`items_per_second`, when present) are compared against the
baseline; a benchmark whose wall time grew — or whose throughput shrank —
by more than the threshold (default 10%) is a REGRESSION and the script
exits 1. Improvements and within-noise drift are reported but never fail.
Benchmarks present on only one side are listed as added/removed, not
failed, so the baseline does not have to be regenerated in the same PR
that adds a benchmark. A warning is printed when the two files were
recorded with a different CPU count or google-benchmark build type, since
their times are then not comparable.

The committed baselines live at the repo root (BENCH_*.json), produced by
    bench_micro --benchmark_filter=BM_EndToEnd --benchmark_repetitions=5 \
                --benchmark_format=json --benchmark_out=BENCH_new.json
"""

import argparse
import json
import statistics
import sys

# Context fields that make two files' times incomparable when they differ.
CONTEXT_KEYS = ("num_cpus", "library_build_type")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_benchmarks(data):
    """run name -> {"real_time": float, "items_per_second": float | None}."""
    repetitions = {}
    medians = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("run_name", entry["name"])
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = [entry]
            continue  # mean/stddev/cv rows are never gated on
        repetitions.setdefault(name, []).append(entry)
    benchmarks = {}
    for name, rows in {**repetitions, **medians}.items():
        rates = [row.get("items_per_second") for row in rows]
        benchmarks[name] = {
            "real_time": statistics.median(
                float(row["real_time"]) for row in rows),
            "items_per_second": (
                statistics.median(float(rate) for rate in rates)
                if None not in rates else None),
        }
    return benchmarks


def context_warnings(baseline, current):
    """One line per CONTEXT_KEYS field the two files disagree on."""
    base = baseline.get("context", {})
    cur = current.get("context", {})
    return [f"WARNING {key} differs: {base.get(key)} -> {cur.get(key)}; "
            "the times are not comparable"
            for key in CONTEXT_KEYS if base.get(key) != cur.get(key)]


def compare(baseline, current, threshold):
    """Returns (report_lines, regression_names)."""
    lines = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            lines.append(f"  ADDED      {name}")
            continue
        if name not in current:
            lines.append(f"  REMOVED    {name}")
            continue
        base, cur = baseline[name], current[name]
        time_ratio = cur["real_time"] / base["real_time"]
        reasons = []
        if time_ratio > 1.0 + threshold:
            reasons.append(f"wall time x{time_ratio:.2f}")
        if base["items_per_second"] and cur["items_per_second"]:
            rate_ratio = cur["items_per_second"] / base["items_per_second"]
            if rate_ratio < 1.0 - threshold:
                reasons.append(f"throughput x{rate_ratio:.2f}")
        if reasons:
            regressions.append(name)
            lines.append(f"  REGRESSION {name}: " + ", ".join(reasons))
        elif time_ratio < 1.0 - threshold:
            lines.append(f"  improved   {name}: wall time x{time_ratio:.2f}")
        else:
            lines.append(f"  ok         {name}: wall time x{time_ratio:.2f}")
    return lines, regressions


def self_test():
    """Exercises the comparison logic on synthetic results."""
    baseline = {
        "steady": {"real_time": 100.0, "items_per_second": 1000.0},
        "slower": {"real_time": 100.0, "items_per_second": 1000.0},
        "starved": {"real_time": 100.0, "items_per_second": 1000.0},
        "faster": {"real_time": 100.0, "items_per_second": 1000.0},
        "timeonly": {"real_time": 100.0, "items_per_second": None},
        "removed": {"real_time": 100.0, "items_per_second": 1000.0},
    }
    current = {
        "steady": {"real_time": 105.0, "items_per_second": 952.0},
        "slower": {"real_time": 125.0, "items_per_second": 800.0},
        "starved": {"real_time": 104.0, "items_per_second": 850.0},
        "faster": {"real_time": 50.0, "items_per_second": 2000.0},
        "timeonly": {"real_time": 150.0, "items_per_second": None},
        "added": {"real_time": 1.0, "items_per_second": 1.0},
    }
    _, regressions = compare(baseline, current, threshold=0.10)
    expected = ["slower", "starved", "timeonly"]

    def row(name, real_time, **extra):
        return {"name": name, "run_name": name, "run_type": "iteration",
                "real_time": real_time, **extra}

    def aggregate(name, kind, real_time):
        return {"name": f"{name}_{kind}", "run_name": name,
                "run_type": "aggregate", "aggregate_name": kind,
                "real_time": real_time}

    # Repetitions share a name: the median aggregate decides, not whichever
    # repetition came last (here an outlier).
    with_aggregates = parse_benchmarks({"benchmarks": [
        row("BM_A", 100.0), row("BM_A", 101.0), row("BM_A", 300.0),
        aggregate("BM_A", "mean", 167.0), aggregate("BM_A", "median", 101.0),
        aggregate("BM_A", "stddev", 115.0),
    ]})
    # Without aggregate rows, the median of the repetitions.
    repetitions_only = parse_benchmarks({"benchmarks": [
        row("BM_B", 90.0, items_per_second=10.0),
        row("BM_B", 300.0, items_per_second=3.0),
        row("BM_B", 100.0, items_per_second=9.0),
    ]})
    single = parse_benchmarks({"benchmarks": [row("BM_C", 7.0)]})
    same = {"context": {"num_cpus": 4, "library_build_type": "release"}}
    other = {"context": {"num_cpus": 1, "library_build_type": "debug"}}
    warnings = context_warnings(same, other)
    checks = [
        (regressions == expected,
         f"expected {expected}, got {regressions}"),
        (compare(baseline, baseline, 0.10)[1] == [],
         "identical results must not regress"),
        (compare({}, current, 0.10)[1] == [],
         "an empty baseline must not regress"),
        (with_aggregates == {"BM_A": {"real_time": 101.0,
                                      "items_per_second": None}},
         f"median aggregate not used: {with_aggregates}"),
        (repetitions_only == {"BM_B": {"real_time": 100.0,
                                       "items_per_second": 9.0}},
         f"repetition median not used: {repetitions_only}"),
        (single == {"BM_C": {"real_time": 7.0, "items_per_second": None}},
         f"single run misread: {single}"),
        (len(warnings) == 2 and "num_cpus" in warnings[0]
         and "library_build_type" in warnings[1],
         f"context mismatch not warned: {warnings}"),
        (context_warnings(same, same) == [],
         "matching contexts must not warn"),
    ]
    failed = [message for ok, message in checks if not ok]
    for message in failed:
        print(f"bench_compare self-test FAILED: {message}")
    if not failed:
        print("bench_compare self-test passed")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline BENCH json")
    parser.add_argument("current", nargs="?", help="candidate BENCH json")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="fractional regression tolerance (default 0.10 = 10%%)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the comparison logic on synthetic data and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT are required (or --self-test)")

    baseline_data = load(args.baseline)
    current_data = load(args.current)
    lines, regressions = compare(parse_benchmarks(baseline_data),
                                 parse_benchmarks(current_data),
                                 args.threshold)
    print(f"bench_compare: {args.baseline} -> {args.current} "
          f"(threshold {args.threshold:.0%})")
    for line in context_warnings(baseline_data, current_data):
        print(line)
    for line in lines:
        print(line)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
