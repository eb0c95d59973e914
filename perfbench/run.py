#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload spark-tc|small-transfer|tcp-bulk \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and
builds `perfbench/` (which compiles the program's `src/`) into
`.bench_build/`; later calls only check that the build is current.
Build output goes to stderr. The last line of stdout is the JSON
result of `skybench` (see README.md). Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["spark-tc", "small-transfer", "tcp-bulk"]
# A run is --seconds of measurement plus set-up and checks; anything
# far beyond that is a hang, which must not outlive this script.
RUN_SLACK_S = 120


def build():
    """Configure (once) and build skybench; return its path or None."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=out, stderr=out).returncode
        if rc != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "skybench"],
        stdout=out, stderr=out).returncode
    if rc != 0:
        return None
    return os.path.join(BUILD, "skybench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(
            cmd, timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: skybench timed out and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
