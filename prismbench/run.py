#!/usr/bin/env python3
"""Build the Prism benchmark from source and run one workload.

Usage (from the repository root):

    python3 prismbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

The engine is compiled from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build); repeated runs rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is non-zero, and no result is printed, when the build or the
run fails. See prismbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "read_uniform", "nutanix", "resp_get")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "prism_bench",
              "-j", jobs]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=850)
        if res.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    if not build(build_dir):
        return 2

    # The engine reads PRISM_* variables (shard count, I/O backend, ops
    # port, fault schedules); clear them so every run has the same setup.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRISM_")}
    cmd = [os.path.join(build_dir, "prism_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "traces")]
    res = subprocess.run(cmd, env=env, timeout=175)
    return res.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e}", file=sys.stderr)
        sys.exit(3)
