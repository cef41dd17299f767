#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over seeds 1-5 in BENCH_perf.json.

Runs the command from BENCHMARK.json once per seed for every workload, as
perfbench/spread.py does, and writes for each workload and end-to-end metric the value of
every seed, the median and the quartiles, with each run's host block and the git rev the
runs were built from. The seeds are SEEDS (1-5). Run it from the repository root on a
committed tree; one run takes about 20 s per workload and seed (15 s measured plus set-up):

    python3 scripts/bench_perf.py

Exits non-zero and writes nothing if a run fails or reports a failed check.
"""

import json
import shlex
import statistics
import subprocess
import sys

SEEDS = list(range(1, 6))


def host_block(stdout):
    """The `host:` lines of one run as a dict (`key=value` fields plus the CPU steal)."""
    host = {}
    for line in stdout.splitlines():
        if line.startswith("host: cpu steal during the run "):
            host["steal"] = line.rsplit(" ", 1)[1]
        elif line.startswith("host: "):
            host.update(field.split("=", 1) for field in shlex.split(line[6:]) if "=" in field)
    return host


def main():
    bench = json.load(open("BENCHMARK.json"))
    report = {"schema": "bench-perf-v1", "git_rev": None, "command": bench["command"],
              "run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, values = [], {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if not result or not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
            host = host_block(run.stdout)
            runs.append({"seed": seed, "attempted": result["attempted"], "host": host})
            report["git_rev"] = report["git_rev"] or host["git_rev"]
            if host["git_rev"] != report["git_rev"]:
                sys.exit(f"{workload} seed {seed}: git rev changed during the runs")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        metrics = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "values": xs,
                                  "median": median, "q1": q1, "q3": q3}
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
    with open("BENCH_perf.json", "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    print("wrote BENCH_perf.json")


if __name__ == "__main__":
    main()
