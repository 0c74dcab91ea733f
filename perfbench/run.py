#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload sdss-gen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the harness into .bench_build/perfbench (Release); later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(target):
    # The library sources live outside this directory; without them there is
    # nothing to measure.
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from a full checkout" % (need, ROOT))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", BUILD, "-j", JOBS, "--target", target], 880)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=175)
    except subprocess.TimeoutExpired:
        fail("harness timed out", 3)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("harness exited with %d" % proc.returncode, proc.returncode or 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
