#!/usr/bin/env python3
"""Build and run the EXTRA pipeline benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the repository's src/
tree) into $CARGO_TARGET_DIR when set, else .bench_build/, then runs the
benchmark binary with its scratch files under .bench_work/. The binary's
standard output is passed through; its last line is the JSON result.
When the build fails (as it does outside a full checkout), nothing is
printed on standard output and the exit code is non-zero.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["discover-verify", "exhaust-open", "compile-execute", "serve-repeat"]


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running build step or benchmark before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(WORK, args.workload)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--work-dir", work,
           "--expected", os.path.join(HERE, "expected_counts.txt")]
    try:
        done = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
