#!/usr/bin/env python3
"""A/A noise table: runs the benchmark command of BENCHMARK.json N times
per workload, each with another seed, and prints for every end-to-end
metric the median and the spread (distance between the first and third
quartile as a share of the median) — the figure the bounds are set from.

    python3 benchmark/noise.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run from the repo root, after one `cargo build --release` of the package.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

print("| workload | metric | median | spread | bound | spread/bound |")
print("|---|---|---|---|---|---|")
for wl in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {name: [] for name in bounds}
    began = time.time()
    for k in range(args.runs):
        cmd = spec["command"] + ["--workload", wl, "--seed", str(args.first_seed + k),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{wl} seed {args.first_seed + k} failed:\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        print(f"| {wl} | {name} | {med:.6g} | {spread:.1%} | {bounds[name]:.0%} | {spread / bounds[name]:.2f} |")
    print(f"<!-- {wl}: {args.runs} runs, {(time.time() - began) / args.runs:.1f} s each -->", flush=True)
