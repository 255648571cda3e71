#!/usr/bin/env python3
"""Build the Cable benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 cablebench/run.py --workload <table3|wide_session|remine> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds cablebench/ (which compiles the
library from src/) into .bench_build/cablebench; later calls only rebuild
what changed. Build output goes to stderr. The benchmark's own output goes
to stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the spans are also written
to .bench_build/spans-<workload>-<seed>.json. The exit code is the
benchmark's: 0 when every output check passed, non-zero otherwise, when
the build fails, or when the printed metrics (names and units) are not
exactly BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cablebench")
BINARY = os.path.join(BUILD_DIR, "cablebench")


def build():
    """Configure (first time) and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cablebench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_ROOT, f"spans-{args.workload}-{args.seed}.json")]
    # Room for set-up, the warm-up pass, the pass in flight at the deadline
    # and, traced, the slower traced passes.
    timeout = 2 * args.seconds + 60
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {timeout:g} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    lines = done.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"] if lines else {}
    printed = [(name, m["unit"]) for name, m in metrics.items()]
    if printed != declared_metrics(args.trace):
        print("run.py: printed metrics differ from BENCHMARK.json's "
              f"{'per_layer' if args.trace else 'end_to_end'} list",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
