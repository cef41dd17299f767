#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed for each workload and prints, per
metric, the median and the quartile spread (Q3 - Q1) / median next to the metric's bound.
Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads cover-expander,serve-mix]

Exits non-zero if a run fails or a spread (other than setup_s) exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds_from(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, xs in values.items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread <= bounds[name] / 3
            ok &= steady
            print(f"{workload:16} {name:18} median {med:12.4f} spread {spread:6.3f} "
                  f"bound {bounds[name]:.2f} {'' if steady else 'UNSTEADY'} "
                  f"{' '.join(f'{x:.4g}' for x in xs)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
