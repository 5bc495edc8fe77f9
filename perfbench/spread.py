#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, for every end-to-end
metric, its median and its quartile spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload reprogram --seeds 1 2 3 4 5

Each run is the command BENCHMARK.json names, with --trace 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run: {result}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:13} {name:17} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {bounds[name]:5.2f}  spread/bound {share:5.2f}"
                  f"  values {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
