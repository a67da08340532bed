#!/usr/bin/env python3
"""Builds and runs the MOELA end-to-end benchmark.

    python3 perfbench/run.py --workload noc-moela --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The harness (perfbench/*.cpp) and the
library sources (src/) are compiled in Release mode into
.bench_build/perfbench on first use; later runs rebuild only what changed.
Scratch files go to .bench_build/perfbench-work. The last line of stdout is
the result object: {"correct", "attempted", "failed", "metrics"}. Its metric
names must be exactly the end_to_end (--trace 0) or per_layer (--trace 1)
names declared in BENCHMARK.json; anything else is an error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the harness; build logs go to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns the parsed result, or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "unexpected %s, or units differ" % (missing, extra))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    # The harness refuses to report numbers when its own arithmetic is off.
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1
    if args.self_test:
        return 0
    if not args.workload:
        parser.error("--workload is required")

    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", WORK],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (args.workload, proc.returncode),
              file=sys.stderr)
        return 1
    try:
        validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        print("perfbench: invalid result: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
