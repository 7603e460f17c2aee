#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics across seeds.

Run from the repository root::

    python3 perfbench/spread.py

Runs ``perfbench/run.py`` for seeds 1 to 10 on every workload in
BENCHMARK.json, one run at a time, for its ``run_seconds``.  Prints each
metric's median and its quartile spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) next
to the bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else float("nan")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    results: dict[str, list[dict]] = {workload: [] for workload in workloads}
    # Seeds outermost: every workload's runs spread over the same stretch
    # of time, so they see the same host conditions.
    for seed in range(1, RUNS + 1):
        for workload in workloads:
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]), "--trace", "0",
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, check=False
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(completed.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                return 1
            result = json.loads(lines[-1])
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            print(f"  {name:<24} median {statistics.median(values):>12.4f}  "
                  f"spread {spread(values):.4f}  bound {bound:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
