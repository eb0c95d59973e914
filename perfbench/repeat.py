#!/usr/bin/env python3
"""Run the workloads repeatedly, interleaved, and report their spread.

    python3 perfbench/repeat.py [--runs 10] [--sets 2] [--seconds S]
                                [--workloads a,b]

Round i runs every workload once per set, all on seed i (seeds 1 to
--runs), so that slow drift of the machine hits every workload and set
alike. For each workload and end-to-end metric it prints the median
and quartiles of each set (as `statistics.quantiles(values, n=4)`
gives them), the spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json, and how far the last set's median moved from the
first set's, in the metric's bad direction. `!` marks a spread above
a third of the bound; `SPREAD` a spread above the bound; `MOVE` a
move above the bound. The header names the build type and nproc; the
bounds in BENCHMARK.json are set from what this prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("repeat.py: %s seed %d failed (exit %d)"
                 % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    specs = {m["name"]: m for m in bench["end_to_end"]}

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        for w in workloads:
            for s in range(args.sets):
                results[w][s].append(run_once(w, seed, args.seconds))
        print("round %d/%d done" % (i + 1, args.runs), file=sys.stderr)

    build_type = "unknown"
    cache = os.path.join(ROOT, ".bench_build", "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    print("build %s, nproc %d, %d runs x %d sets of %g s, seeds 1..%d"
          % (build_type, os.cpu_count() or 0, args.runs, args.sets,
             args.seconds, args.runs))
    for w in workloads:
        sets = results[w]
        shares = ["%d/%d" % (sum(r["failed"] for r in rs),
                             sum(r["attempted"] for r in rs))
                  for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        print("\n%s  correct=%s  failed/attempted per set: %s"
              % (w, correct, " ".join(shares)))
        print("  %-26s %-8s %12s %12s %12s %7s %6s %7s"
              % ("metric", "unit", "q1", "median", "q3", "spread",
                 "bound", "move"))
        for name in sets[0][0]["metrics"]:
            spec = specs[name]
            bound = spec["bound"]
            medians = []
            for s, rs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, q2, q3 = quartiles(vals)
                medians.append(q2)
                spread = (q3 - q1) / q2 if q2 else 0.0
                move = ""
                if s == len(sets) - 1 and len(sets) > 1 and medians[0]:
                    m = (q2 - medians[0]) / medians[0]
                    if spec["better"] == "higher":
                        m = -m
                    move = "%+.3f" % m
                flag = ""
                if spread > bound:
                    flag += " SPREAD"
                elif spread > bound / 3:
                    flag += " !"
                if move and float(move) > bound:
                    flag += " MOVE"
                print("  %-26s %-8s %12.6g %12.6g %12.6g %7.3f %6s %7s %s"
                      % (name if s == 0 else "  set %d" % (s + 1),
                         sets[0][0]["metrics"][name]["unit"], q1, q2, q3,
                         spread, bound, move, flag))


if __name__ == "__main__":
    main()
