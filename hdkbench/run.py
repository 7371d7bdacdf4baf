#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 hdkbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 hdkbench/run.py --selftest

The build goes to .bench_build/hdkbench (Release). The benchmark's last
stdout line is its JSON result; build output goes to stderr. Snapshot
files and span dumps live in .hdkbench/, and no snapshot file outlives a
run, whatever way it ends.
"""

import argparse
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hdkbench")
WORK_DIR = os.path.join(ROOT, ".hdkbench")
WORKLOADS = ("serve", "churn", "cold-start")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hdkbench: library sources not found under "
                 f"{os.path.join(ROOT, 'src')}")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", target], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def remove_snapshots():
    for path in glob.glob(os.path.join(WORK_DIR, "*.hdks*")):
        os.remove(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics tests")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("hdkbench_stats_test")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        binary = build("hdkbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"hdkbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"hdkbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        remove_snapshots()


if __name__ == "__main__":
    sys.exit(main())
