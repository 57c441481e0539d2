#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json at its run_seconds once
per seed for each workload and prints, per end-to-end metric, the
median, the quartiles, and the spread (Q3 - Q1) / median next to the
metric's bound. Run it from the repository root:

    python3 hostbench/spread.py --workloads udp_echo_64 --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    specs = bench["end_to_end"]
    seconds = bench["run_seconds"]
    worst = (0.0, None)
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in specs}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        print(f"\n{workload}: {len(args.seeds)} runs of {seconds} s")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
        for m in specs:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            worst = max(worst, (share, f"{workload} {m['name']}"))
            print(f"{m['name']:<16} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {spread:>8.3f} "
                  f"{m['bound']:>6} {share:>7.2f}")
        print()
    print(f"largest spread / bound: {worst[0]:.2f} ({worst[1]})")


if __name__ == "__main__":
    main()
