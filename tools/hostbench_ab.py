#!/usr/bin/env python3
"""Interleaved A/B of hostbench between a parent and a change checkout.

    python3 tools/hostbench_ab.py --parent ../parent --change . \\
        --workload timeshare-4core --seed 7 --seconds 30 --pairs 10

Runs `python3 hostbench/run.py` in each checkout once per pair,
alternating which side runs first (pair 0: parent first, pair 1: change
first, ...), so slow drifts in host load hit both sides alike. Each
checkout builds its own benchmark under its own .bench_build. Aborts
with exit code 1 as soon as a run fails or reports "correct": false.

Per metric of the result line it prints both sides' medians and
quartiles, the relative change of the median and the pairs the change
won. Each metric's direction ("better": higher or lower) comes from
BENCHMARK.json at the root of this checkout, which is only read. With
ten pairs or more, a metric is marked `gain` when the change won at
least nine tenths of the pairs and its median moved the right way by
more than the parent's interquartile range, and `loss` when the same
holds the wrong way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spec-1core", "parsec-4core", "timeshare-4core")


def load_metrics():
    """(direction of every declared metric, names of the end-to-end ones)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench.get("end_to_end", [])]
    better = {m["name"]: m["better"]
              for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    return better, end_to_end


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("hostbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.exit("hostbench_ab: no result line from %s (exit %d)"
                 % (checkout, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.exit("hostbench_ab: %s: run failed its checks (exit %d): %s"
                 % (checkout, proc.returncode, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    better, end_to_end = load_metrics()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print("pair %d/%d (%s first): %s" % (
            i + 1, args.pairs, order[0],
            " ".join("%s %.4g -> %.4g" % (m, runs["parent"][-1][m],
                                          runs["change"][-1][m])
                     for m in end_to_end if m in runs["parent"][-1])),
              file=sys.stderr, flush=True)

    names = [m for m in runs["parent"][0]
             if m in runs["change"][0] and m in better]
    print("workload=%s seed=%d seconds=%d trace=%d pairs=%d"
          % (args.workload, args.seed, args.seconds, args.trace, args.pairs))
    print("%-28s %-6s %28s %28s %8s %6s" % (
        "metric", "better", "parent median [q1, q3]",
        "change median [q1, q3]", "change", "won"))
    for m in names:
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        sign = 1 if better[m] == "higher" else -1
        won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        lost = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        iqr = pq[1] - pq[0]
        rel = (cm - pm) / pm * 100 if pm else 0.0
        need = -(-9 * args.pairs // 10)
        mark = ""
        if args.pairs >= 10 and won >= need and sign * (cm - pm) > iqr:
            mark = "gain"
        elif args.pairs >= 10 and lost >= need and sign * (pm - cm) > iqr:
            mark = "loss"
        print("%-28s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%+7.2f%% %3d/%-2d %s" % (m, better[m], pm, pq[0], pq[1],
                                        cm, cq[0], cq[1], rel, won,
                                        args.pairs, mark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
