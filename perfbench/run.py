#!/usr/bin/env python3
"""Benchmark entry point: build the harness from source, run one workload.

    python3 perfbench/run.py --workload theory_region --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library is compiled from ../src) into
.bench_build/perfbench; later runs only re-check the build. The harness
runs in its own process, so peak_rss_mb is the workload's alone. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, and the span
records land in .bench_build/perfbench/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("theory_region", "theory_ingest", "sim_region",
             "adaptive_volume", "trace_emit", "monitor_replay")
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench_harness"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work = BUILD / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(harness), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"perfbench: harness exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted, failed = result["attempted"], result["failed"]
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    except (ValueError, IndexError, KeyError) as err:
        print(f"perfbench: unreadable harness result: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        metrics["check_fail_ratio"] = {"value": failed / max(attempted, 1),
                                       "unit": "ratio"}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
