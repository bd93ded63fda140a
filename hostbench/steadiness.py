#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record it.

Usage (from the repository root)::

    python3 hostbench/steadiness.py [--repeat]

Runs ``hostbench/run.py`` ten times per workload of ``BENCHMARK.json``,
one seed per run (seeds 1 to 10), one run at a time, each for the
``run_seconds`` that file sets.  For every end-to-end metric it
records the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  The record is
written to ``hostbench/steadiness.json``, merged with the workloads
already in it.  With ``--repeat`` the set is run again
and stored beside the first as ``repeat``, with each metric's ``worse_by``:
how much worse the second median is than the first, as a share of the
first (negative when it is better).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "steadiness.json")
SEEDS = range(1, 11)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / center if center else 0.0,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    declared = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    bounds = {entry["name"]: entry["bound"] for entry in declared}
    lower_is_better = {entry["name"]: entry["better"] == "lower" for entry in declared}
    record = {}
    if os.path.exists(RECORD):
        with open(RECORD) as handle:
            record = json.load(handle)
    record["machine"] = {"cpu": cpu_model(), "cpus": os.cpu_count(),
                         "python": platform.python_version(),
                         "seconds_per_run": seconds}
    workloads = record.setdefault("workloads", {})
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        results = []
        for seed in SEEDS:
            result = one_run(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            metrics[name] = summarise(values, bound)
            cell = metrics[name]
            flag = "" if cell["spread"] <= bound / 3 else "  (above a third of its bound)"
            print(f"  {workload} {name}: median {cell['median']:.4g}, spread "
                  f"{cell['spread']:.3f}, bound {bound}{flag}", flush=True)
        entry = {"seeds": [SEEDS[0], SEEDS[-1]],
                 "all_correct": all(result["correct"] for result in results),
                 "metrics": metrics}
        if args.repeat:
            first = workloads[workload]["metrics"]
            for name, cell in metrics.items():
                change = cell["median"] / first[name]["median"] - 1
                cell["worse_by"] = change if lower_is_better[name] else -change
                print(f"  {workload} {name}: repeat median worse by "
                      f"{cell['worse_by']:+.3f} (bound {bounds[name]})", flush=True)
            workloads[workload]["repeat"] = entry
        else:
            workloads[workload] = entry
        with open(RECORD, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
