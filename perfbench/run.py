#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark (see README.md here).

    python3 perfbench/run.py --workload <casestudies|flips|storm|rollout> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds the
library sources and the benchmark program (Release) into .bench_build/; later
runs only rebuild what changed. Build output goes to stderr. The program's
stdout is passed through; its last line is the result as one JSON object.
With --trace 1 the spans are also written to
.bench_build/spans-<workload>-<seed>.jsonl. The exit code is the program's: 0
only if every operation and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("casestudies", "flips", "storm", "rollout")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "program.h")):
        fail(f"no multiverse sources under {root}/src; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(build_root, "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_root, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict) or set(summary) != {"correct", "attempted", "failed",
                                                         "metrics"}:
        fail(f"the benchmark printed no result (exit code {result.returncode})")
    print(lines[-1])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
