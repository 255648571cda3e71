#!/usr/bin/env python3
"""Run benchmark workloads repeatedly and report each metric's spread.

Usage, from the root of the repository:

    python3 cablebench/steady.py --workload table3 --runs 10
    python3 cablebench/steady.py --workload remine --runs 10 \
        --tree ../parent --tree .

Each run is its own end-to-end run (--trace 0) of run_seconds from
BENCHMARK.json, in its own process (so peak_rss_mb is per workload run),
with its own seed: 1, 2, ..., runs. With two --tree directories
(checkouts of two commits, each holding cablebench/ and BENCHMARK.json),
every seed runs on both, alternating which tree goes first. For every
tree, workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4), and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound from that tree's BENCHMARK.json. Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("cablebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def bounds(tree):
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def report(tree, workload, runs):
    print(f"\n{workload} @ {tree}: {len(runs)} runs")
    bound = bounds(tree)
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else float("nan")
        b = bound.get(name)
        print(f"  {name:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {'' if b is None else b:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--tree", action="append",
                        help="checkout to run in (repeat to compare two)")
    args = parser.parse_args()
    trees = [os.path.abspath(t) for t in (args.tree or [os.path.dirname(HERE)])]
    with open(os.path.join(trees[0], "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    ok = True
    for workload in args.workload:
        results = {t: [] for t in trees}
        for i in range(args.runs):
            seed = i + 1
            order = trees if i % 2 == 0 else list(reversed(trees))
            for tree in order:
                metrics = run_once(tree, workload, seed, seconds)
                if metrics is None:
                    print(f"run failed: {workload} seed {seed} @ {tree}",
                          file=sys.stderr)
                    ok = False
                    continue
                results[tree].append(metrics)
                print(f"{workload} seed {seed} @ {tree}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
        for tree in trees:
            if results[tree]:
                report(tree, workload, results[tree])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
