#!/usr/bin/env python3
"""Build and run the simulator host-throughput benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload spec-1core --seed 1 --seconds 30 --trace 0

The first run configures and builds the simulator library and the
hostbench program in Release under .bench_build/hostbench (build output goes
to stderr); later runs only check that the build is current. The program's
standard output is passed through unchanged: its last line is the JSON
result. The exit code is the program's (nonzero when a check failed) or
nonzero when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("spec-1core", "parsec-4core", "timeshare-4core")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("hostbench: simulator sources not found in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "hostbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds 1..3600")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("hostbench: build failed: %s" % e)
    sys.stdout.flush()
    return subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
