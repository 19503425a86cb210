#!/usr/bin/env python3
"""Checks a perfbench run's work counts against tools/work-counts.json.

Usage (from the repository root):

    python3 perfbench/run.py --workload phases_cold --seed 1 --seconds 5 \\
        --trace 1 | tail -n 1 > result.json
    python3 tools/check-work-counts.py --workload phases_cold result.json

The result file holds perfbench's JSON result line (its last line of
stdout) from a traced (`--trace 1`) seed-1 run. Each count recorded for the
workload in tools/work-counts.json must match within a relative tolerance of
1e-9: the values are means of integer counts over a fixed pass, so any real
change in the engine's work shows up as a mismatch. A change that means to
alter the work updates tools/work-counts.json and says why in CHANGES.md.

Exit status: 0 when every count matches, 1 on a mismatch or a missing
metric, 2 on a usage error.

A change that means to alter the work records the new counts with

    python3 tools/check-work-counts.py --record --workload phases_cold \\
        result.json

which rewrites the values of the keys already recorded for the workload
(it adds and drops none) and names the tree the run was made on, from
`git describe --always --dirty`, in the file's `about` text: a commit, or
the uncommitted change on top of one. It refuses a result whose run
failed a reply or lacks a recorded key.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = os.path.join(ROOT, "tools", "work-counts.json")
REL_TOL = 1e-9


def record(counts, workload, result):
    """Rewrites \\p workload's recorded keys from \\p result in place."""
    if result.get("failed", 0) > 0 or not result.get("correct", False):
        print(f"check-work-counts: refusing to record a run with "
              f"{result.get('failed', 0)} failed replies", file=sys.stderr)
        return 1
    metrics = result.get("metrics", {})
    keys = counts["workloads"][workload]
    missing = [name for name in keys if name not in metrics]
    if missing:
        print(f"check-work-counts: the run lacks {', '.join(missing)}",
              file=sys.stderr)
        return 1
    changed = [name for name in keys if metrics[name]["value"] != keys[name]]
    for name in changed:
        print(f"recorded {workload} {name}: {keys[name]!r} -> "
              f"{metrics[name]['value']!r}")
        keys[name] = metrics[name]["value"]
    if not changed:
        print(f"check-work-counts: {workload} already matches")
        return 0
    tree = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    if tree.endswith("-dirty"):
        tree = f"on the uncommitted change after {tree[:-len('-dirty')]}"
    else:
        tree = f"at commit {tree}"
    stamp = f"(Re-recorded for {workload} {tree}: {', '.join(changed)})"
    about = re.sub(rf" ?\(Re-recorded for {re.escape(workload)} [^)]*\)",
                   "", counts["about"])
    counts["about"] = f"{about} {stamp}"
    with open(COUNTS, "w") as f:
        json.dump(counts, f, indent=2)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--record", action="store_true",
                   help="rewrite the workload's recorded counts from the run")
    p.add_argument("result", help="file holding perfbench's result line")
    args = p.parse_args()

    with open(COUNTS) as f:
        counts = json.load(f)
    recorded = counts["workloads"]
    if args.workload not in recorded:
        print(f"check-work-counts: no recorded counts for {args.workload}",
              file=sys.stderr)
        return 2
    with open(args.result) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print("check-work-counts: empty result file", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args.record:
        return record(counts, args.workload, result)
    metrics = result.get("metrics", {})

    bad = 0
    for name, want in recorded[args.workload].items():
        if name not in metrics:
            print(f"MISSING {args.workload} {name}")
            bad += 1
            continue
        got = metrics[name]["value"]
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        print(f"{'ok' if ok else 'MISMATCH':8} {args.workload} {name}: "
              f"recorded {want!r}, run {got!r}")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
