#!/usr/bin/env python3
"""Builds and runs one run of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the engine library from ../src plus the benchmark binary)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root), runs the binary in a fresh process, checks
that the metric names and units it printed are exactly those BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1),
and passes its output through. The last line of standard output is the JSON
result. Exits non-zero without a result when the build, the run or the check
fails. Traced runs write their Chrome trace under <build dir>/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; keep a margin for the checks after it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Exit code of a benchmark run that finished but failed its checks; it
# still prints its result line.
INCORRECT_EXIT = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, *gen, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            fail(f"build step {' '.join(cmd[:2])} exited {res.returncode}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    declared, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")

    bdir = build_dir()
    build(bdir)
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # run() killed and reaped it

    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode not in (0, INCORRECT_EXIT):
        sys.stderr.write(res.stdout)
        fail(f"benchmark exited {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(res.stdout)
        fail("last output line is not a JSON result")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(printed))}, "
             f"undeclared {sorted(set(printed) - set(declared))}, "
             f"unit mismatches "
             f"{sorted(k for k in printed if k in declared and printed[k] != declared[k])}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if res.returncode == INCORRECT_EXIT:
        fail("results failed the correctness check")


if __name__ == "__main__":
    main()
