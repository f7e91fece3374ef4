#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads dna-long,protein-affine] [--seeds 1-10]

For every workload (by default, every one in `BENCHMARK.json`) it runs
`BENCHMARK.json`'s command once per seed for `run_seconds` and prints,
per end-to-end metric, the median and the interquartile range as a share
of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) >= 2 else (0, 0, 0)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            flag = "  <-- above a third of its bound" if name != "setup_s" and spread > bounds[name] / 3 else ""
            print(f"  {name:14s} median {med:<14.6g} spread {spread:7.4f}  bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
