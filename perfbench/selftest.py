#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py [--clients 300]

Runs every workload of BENCHMARK.json, and inproc_taxi, through
perfbench/run.py at a few hundred clients, with tracing off and on, and
asserts that:
  - every run is correct and prints exactly the metrics BENCHMARK.json names
    for its mode;
  - system.trace_coverage reaches the tolerance the benchmark states;
  - inproc_taxi and socket_taxi produce the same result digest for the same
    seed (the TCP == in-process invariant).
Exits non-zero on the first failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(workload, trace, clients):
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--clients", str(clients)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}")
    checks = next(json.loads(line[len("# checks "):]) for line in lines
                  if line.startswith("# checks "))
    return json.loads(lines[-1]), checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=300)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    # inproc_taxi is not one of BENCHMARK.json's workloads; it runs here as
    # socket_taxi's in-process twin.
    workloads = [w["name"] for w in spec["workloads"]]
    if "inproc_taxi" not in workloads:
        workloads.insert(0, "inproc_taxi")
    digests = {}
    for workload in workloads:
        for trace in (0, 1):
            result, checks = run(workload, trace, args.clients)
            label = f"{workload} trace={trace}"
            if not result["correct"]:
                sys.exit(f"FAIL {label}: incorrect output, checks {checks}")
            names = set(result["metrics"])
            if names != expected[trace]:
                sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(expected[trace] - names)}, "
                         f"extra {sorted(names - expected[trace])}")
            if trace == 1:
                coverage = result["metrics"]["system.trace_coverage"]["value"]
                tolerance = checks["trace_coverage_tolerance"]
                if coverage < tolerance:
                    sys.exit(f"FAIL {label}: trace coverage {coverage:.4f} < "
                             f"{tolerance}")
            digests[workload] = checks["digest"]
            print(f"ok {label} digest {checks['digest']}")
    if digests["inproc_taxi"] != digests["socket_taxi"]:
        sys.exit(f"FAIL inproc_taxi digest {digests['inproc_taxi']} != "
                 f"socket_taxi digest {digests['socket_taxi']}")
    print("ok inproc_taxi == socket_taxi")


if __name__ == "__main__":
    main()
