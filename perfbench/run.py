#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark package in perfbench/ (CMake, Release) against the
router sources in src/, runs one workload and relays its output. The last
line of standard output is the JSON result document

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload {paper,scale,serve} --seed N \\
        --seconds S --trace {0,1}

Build files go to $CARGO_TARGET_DIR/perfbench (default .bench_build); a
traced run writes its span file under $CARGO_TARGET_DIR/traces. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper", "scale", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict) and set(doc) == RESULT_KEYS
            and isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int)
            and isinstance(doc["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=94)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isdir(os.path.join(root, "src", "bgr")):
        print("perfbench: router sources not found at src/bgr next to "
              "perfbench/", file=sys.stderr)
        return 3

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 4

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", trace_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 5
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 6
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
