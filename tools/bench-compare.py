#!/usr/bin/env python3
"""Paired perfbench timing of two source trees (EXPERIMENTS.md E5 protocol).

Usage (from anywhere):

    git clone -q . ../csdf-parent && git -C ../csdf-parent checkout <parent>
    python3 tools/bench-compare.py --parent ../csdf-parent --change . \\
        --workload phases_cold --pairs 10 --seed0 5001 \\
        --claim phases_cold:latency_tail_ms

Each tree's perfbench is built and run by that tree's own
`perfbench/run.py`, untraced. For every workload the tool runs N pairs on
seeds seed0, seed0+1, ..., alternating which side runs first, then prints
per (workload, metric) both medians, the parent's quartiles and how many
pairs the change won (ties count for neither side). `--seconds` defaults
to `run_seconds` of the change tree's BENCHMARK.json, whose `end_to_end`
list names the metrics, their better direction and their bounds.

Verdicts, by BENCHMARK.json's rules:

  * a claimed metric (`--claim workload:metric`) is a "gain" when the change
    wins at least 9/10 of the pairs and the medians differ by more than the
    parent's interquartile range, otherwise "not met";
  * every other pairing is "ok" when the change's median is no worse than
    the parent's by more than the metric's bound (a fraction of the
    parent's median), "REGRESSED" when it is; when the parent's own spread
    (IQR over median) is wider than the bound it is "unresolved", unless
    every change run reads better than every parent run.

Exit status: 1 when any reply of any run was incorrect or the change's
`failed` count rose above the parent's in some pair, 0 otherwise. Nothing
under perfbench/ is changed; build trees and run files land in each
tree's .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("kernels_oneshot", "phases_cold", "serve_edit")


def run_once(tree, workload, seed, seconds):
    """Runs one perfbench pass in \\p tree; returns its result object."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if proc.returncode:
        result["correct"] = False
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better(a, b, direction):
    """True when \\p a is strictly better than \\p b."""
    return a < b if direction == "lower" else a > b


def verdict(spec, parent, change, claimed, pairs):
    direction = spec["better"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(better(c, p, direction) for p, c in pairs)
    if claimed:
        gain = (wins >= 0.9 * len(pairs) and better(c_med, p_med, direction)
                and abs(c_med - p_med) > q3 - q1)
        return wins, "gain" if gain else "not met"
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    bound = spec["bound"] * abs(p_med)
    if worse <= bound:
        return wins, "ok"
    spread = (q3 - q1) / abs(p_med) if p_med else float("inf")
    if spread > spec["bound"] and not all(
            better(c, p, direction) for c in change for p in parent):
        return wins, "unresolved"
    return wins, "REGRESSED"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent source tree")
    p.add_argument("--change", required=True, help="changed source tree")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all three)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--claim", action="append", default=[],
                   metavar="WORKLOAD:METRIC",
                   help="a metric the change claims to improve")
    args = p.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["end_to_end"]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    workloads = args.workload or list(WORKLOADS)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    broken = False
    for w in workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                r = run_once(trees[side], w, seed, seconds)
                r["seed"] = seed
                runs[w][side].append(r)
                print(f"{w} seed {seed} {side}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
            par, chg = runs[w]["parent"][-1], runs[w]["change"][-1]
            if not (par["correct"] and chg["correct"]) or \
                    chg["failed"] > par["failed"]:
                broken = True

    print(f"{'workload':16} {'metric':16} {'parent':>10} {'(IQR)':>21} "
          f"{'change':>10} {'delta':>8} {'wins':>6}  verdict")
    for w in workloads:
        for spec in specs:
            name = spec["name"]
            try:
                parent = [r["metrics"][name]["value"]
                          for r in runs[w]["parent"]]
                change = [r["metrics"][name]["value"]
                          for r in runs[w]["change"]]
            except KeyError:
                print(f"{w:16} {name:16} missing from a run")
                broken = True
                continue
            wins, v = verdict(spec, parent, change, (w, name) in claims,
                              list(zip(parent, change)))
            p_med = statistics.median(parent)
            c_med = statistics.median(change)
            q1, q3 = quartiles(parent)
            delta = (c_med - p_med) / p_med * 100 if p_med else 0.0
            print(f"{w:16} {name:16} {p_med:10.4g} "
                  f"({q1:9.4g}-{q3:9.4g}) {c_med:10.4g} {delta:+7.1f}% "
                  f"{wins:2}/{len(parent):<3}  {v}")

    if broken:
        print("bench-compare: an incorrect reply, a missing metric or a "
              "rise in failed requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
