#!/usr/bin/env python3
"""Builds and runs the zenvisage end-to-end benchmark.

    python3 benchmark/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds `zv_e2e` (Release) under .bench_build/; later calls rebuild
incrementally. All build output goes to stderr, so the last line of
standard output is the harness's JSON result. Exits non-zero without a
result when the zenvisage sources are not present. See benchmark/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "zv_e2e")
WORKLOADS = ("explore", "dashboard", "paper_opt")


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("run.py: build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: zenvisage sources not found in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_build_step([
                "cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release",
                "-DZV_ASAN=OFF", "-DZV_TSAN=OFF", "-DZV_UBSAN=OFF",
            ])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_build_step(["cmake", "--build", BUILD, "--target", "zv_e2e",
                        "-j", jobs])
    return os.path.join(BUILD, "zv_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")

    binary = build()
    sys.stdout.flush()
    proc = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
