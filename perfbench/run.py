#!/usr/bin/env python3
"""Builds and runs the csdf bench of record.

Run from the repository root:

    python3 perfbench/run.py --workload kernels_oneshot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_edit --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test --seed 1

The first call configures and builds perfbench/ (and the src/ libraries it
links) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is always the
result object of the run.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "csdf-perfbench")
WORKLOADS = ("kernels_oneshot", "phases_cold", "serve_edit")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no csdf source tree (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "csdf-perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    build()
    cmd = [BINARY, "--seed", str(args.seed)]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--repo", ROOT,
                "--work-dir", os.path.join(ROOT, ".bench_build", "run")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
