#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and reports, per
workload and end-to-end metric, the median and the spread (distance between
the first and third quartile, as statistics.quantiles(values, n=4) gives
them) as a share of the median, against the metric's bound in BENCHMARK.json.
Each run's host steal share and cores used over its selected windows, and
the length of its interval, are listed next to it, so a steal-driven
outlier can be told apart from a code effect.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs one process at a time. Exits 1 when a spread exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         check=True)
    lines = res.stdout.strip().split("\n")
    info = {line.split(":")[0]: dict(re.findall(r"([\w.]+)=([\w.]+)", line))
            for line in lines if line.startswith(("interval:", "selected:"))}
    host = info["selected"]
    host["interval_s"] = info["interval"]["seconds"]
    return json.loads(lines[-1]), host


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, host = run_once(workload, seed, spec["run_seconds"])
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"steal={host.get('host.steal_frac')} "
                  f"cores={host.get('host.cores_used')} "
                  f"p95_tail={host.get('p95_tail_samples')} "
                  f"interval_s={host['interval_s']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items()),
                  flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"]
            steady &= ok
            print(f"  {workload:16s} {m['name']:18s} median={med:.5g} "
                  f"spread={spread:.4f} bound={m['bound']} "
                  f"{'ok' if ok else 'TOO WIDE'}"
                  f"{'' if spread < m['bound'] / 3 else ' (above bound/3)'}",
                  flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
