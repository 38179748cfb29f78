#!/usr/bin/env python3
"""Steadiness report for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--save set.json] [--against set.json]

Runs perfbench/run.py --runs times with consecutive seeds and
BENCHMARK.json's run_seconds, then prints for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and that spread against the metric's bound. --save
keeps the values; --against compares this set's medians with a saved set's,
the check that two sets of runs of the same code agree within the bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run.py failed (seed %d):\n%s" % (seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("seed %d: outputs failed their checks" % seed)
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, baseline, value):
    """How much worse `value` is than `baseline`, as a share of `baseline`."""
    change = (value - baseline) / baseline if baseline else 0.0
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, bench["run_seconds"]))
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % kv for kv in runs[-1].items())), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    print("\n%-14s %12s %12s %12s %8s %6s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "s/bound", "verdict"))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        if name == "setup_s":
            verdict += " (spread not gated)"
        line = "%-14s %12.6g %12.6g %12.6g %8.4f %6.3f %8.3f  %s" % (
            name, med, q1, q3, spread, bound, spread / bound, verdict)
        if saved:
            before = statistics.median(r[name] for r in saved)
            shift = worse_by(metric, before, med)
            line += "; vs saved median %.6g: worse by %.4f (%s)" % (
                before, shift, "ok" if shift <= bound else "OVER BOUND")
        print(line)


if __name__ == "__main__":
    main()
