#!/usr/bin/env python3
"""Build and run the steady-state epoch benchmark.

    python3 perfbench/run.py --workload inproc_taxi --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src as libraries) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload and relays its output. The last stdout line is the result JSON:
{"correct", "attempted", "failed", "metrics"}. Extra flags (--clients) pass
through to the binary. Exits non-zero, without printing a result, when the
sources or the build are missing or broken.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no PrivApprox sources under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    out_dir = build_dir()
    build(out_dir)
    command = [str(out_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--work-dir", str(out_dir / "runs")] + passthrough
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        fail(f"malformed result line (exit {done.returncode})", 5)
    for line in lines:
        print(line)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
