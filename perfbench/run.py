#!/usr/bin/env python3
"""Build and run the deepscale wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the library sources from src/ plus the perfbench binary) in a Release
tree under $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed.

--trace 0 splits --seconds across PROCESSES fresh perfbench processes of the
same seed and reports the median of each end-to-end metric over them. This
evens out the speed differences between processes, and gives setup_s one
sample per process. --trace 1 runs one traced per-layer process. Either way
the last line of stdout is the JSON result; the exit code is nonzero, with
no result printed, when the build or a run fails or runs out of time.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_alexnet", "fabric_lenet", "serve_googlenet")
PROCESSES = 6
RUN_BUDGET_S = 170  # every perfbench process of one run, the build excluded


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the perfbench binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    target_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        before = os.path.getmtime(binary) if os.path.exists(binary) else None
        steps = [["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed, see " + log_path)
    rebuilt = before is None or os.path.getmtime(binary) != before
    return binary, rebuilt


def run_binary(binary, workload, seed, seconds, trace, scratch, deadline):
    """One perfbench process; returns its JSON result and echoes its report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--scratch", scratch]
    try:
        # subprocess.run kills and reaps the process when the time runs out.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(workload + ": perfbench ran out of time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s: perfbench exited with %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def combine(results):
    """Median of each metric over the processes; checks summed.

    samples_per_s is the mean instead: every process times the same span,
    so the mean is the rate over the whole run, which averages the host's
    fast and slow spells instead of snapping to one of them.
    """
    names = results[0]["metrics"].keys()
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        pick = statistics.mean if name == "samples_per_s" else statistics.median
        metrics[name] = {"value": pick(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # Every process runs the same seed, and the training runners and the
    # serving simulation are bit-deterministic: the loss must agree exactly.
    same_loss = len({r["metrics"]["final_loss"]["value"] for r in results}) == 1
    if not same_loss:
        print("perfbench: final_loss differs between processes", file=sys.stderr)
    metrics["success_rate"]["value"] = (attempted - failed) / attempted
    return {"correct": all(r["correct"] for r in results) and same_loss,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary, rebuilt = build()
    scratch = os.path.join(os.path.dirname(binary), "scratch")
    os.makedirs(scratch, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if rebuilt:
        # The first process after a build runs slow; keep it out of the figures.
        run_binary(binary, args.workload, args.seed, 1.0, 0, scratch, deadline)

    if args.trace == 1:
        result = run_binary(binary, args.workload, args.seed, args.seconds, 1,
                            scratch, deadline)
    else:
        per_process = args.seconds / PROCESSES
        result = combine([run_binary(binary, args.workload, args.seed,
                                     per_process, 0, scratch, deadline)
                          for _ in range(PROCESSES)])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
