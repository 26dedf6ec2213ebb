#!/usr/bin/env python3
"""Restoration benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark program into
.bench_build (CMake, Release), runs the named workload of
perfbench/workloads/, and prints the program's table followed, as the last
line, by one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the program also writes a Chrome trace, which must pass
`sgr trace summarize`. Exits non-zero without a result line when the
arguments are malformed or the build or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"


def workload_names():
    names = []
    for entry in sorted(os.listdir(os.path.join(BENCH_DIR, "workloads"))):
        if entry.endswith(".json"):
            names.append(entry[: -len(".json")])
    return names


def unsigned(text):
    if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"not an unsigned 64-bit integer: {text!r}")
    return text


def seconds(text):
    if not re.fullmatch(r"[0-9]{1,4}", text) or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(f"not a whole number of seconds in [1, 3600]: {text!r}")
    return text


def parse_args():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", required=True, type=unsigned)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args()


def build():
    """Configures (a no-op when nothing changed) and builds incrementally;
    output goes to stderr."""
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "sgr_cli", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join("src", "scenario", "engine.cc")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    build()
    trace_out = os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")
    bench = subprocess.run(
        [
            os.path.join(BUILD_DIR, "perfbench"),
            "--workload", args.workload,
            "--spec", os.path.join(BENCH_DIR, "workloads", args.workload + ".json"),
            "--digests", os.path.join(BENCH_DIR, "digests.json"),
            "--seed", args.seed,
            "--seconds", args.seconds,
            "--trace", args.trace,
            "--trace-out", trace_out,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = bench.stdout.splitlines()
    if bench.returncode != 0 or not lines:
        sys.exit(f"perfbench: the benchmark program exited with {bench.returncode}")
    result = json.loads(lines[-1])
    if args.trace == "1":
        summary = subprocess.run(
            [os.path.join(BUILD_DIR, "sgr", "sgr_cli"), "trace", "summarize", trace_out],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if summary.returncode != 0:
            print("perfbench: the trace fails `sgr trace summarize`", file=sys.stderr)
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
