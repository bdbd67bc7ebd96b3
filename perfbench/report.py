#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints medians and quartiles.

    python3 perfbench/report.py                       # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads sim_region --seeds 5

One command for every workload: each (workload, seed) pair is one
perfbench/run.py process of run_seconds from BENCHMARK.json. For every
end-to-end metric it prints the median, the first and third quartiles
(Python's statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound, then every run's value. The per-layer
metrics come from `perfbench/run.py ... --trace 1`.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                failed += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {workload}: {args.seeds} seeds, {failed} failed")
        for name, (unit, v) in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = limits[name]
            flag = ""
            if name != "setup_s":
                flag = " ok" if spread < bound / 3 else (
                    " within bound" if spread <= bound else " TOO WIDE")
            print(f"  {name:12s} {med:14.6g} {unit:4s} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f} bound {bound}{flag}")
            print("    runs: " + " ".join(f"{x:.6g}" for x in v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
