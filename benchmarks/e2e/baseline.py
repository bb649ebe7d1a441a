#!/usr/bin/env python3
"""Measure the committed baseline of the end-to-end benchmark.

Two kinds of repeats, both through ``run.py`` in subprocesses:

* **sets** — a timed and a traced run of all four workloads at seeds
  0, 0 and 1.  For every metric the file records each set's value,
  their median and quartiles, and the spread between the first two
  sets (same seed) as a share of their mean.
* **sweep** — timed runs of each workload at seeds 0..9, twice.  Each
  end-to-end metric's quartile spread over the ten seeds
  (``statistics.quantiles(values, n=4)``, as a share of the median) is
  checked against its bound in ``BENCHMARK.json`` and listed when above
  a third of it; the medians of the repeats are checked against the
  full bound.  The ungated wall-clock values are recorded beside them.

    python3 benchmarks/e2e/baseline.py --out benchmarks/e2e/baseline.json

Exit status 1 when a spread, a median shift or the difference between
two same-seed sets exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SET_SEEDS = (0, 0, 1)
SWEEP_SEEDS = 10
SWEEP_REPEATS = 2


def _run(work_dir: str, tag: str, args: List[str]) -> Dict[str, Any]:
    """One ``run.py`` invocation; return its ``--out`` document."""
    out = os.path.join(work_dir, f"{tag}.json")
    command = [sys.executable, os.path.join(HERE, "run.py"), *args,
               "--out", out]
    print("$", " ".join(command[1:]), flush=True)
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    if completed.returncode != 0:
        raise SystemExit(f"{tag}: run.py exited {completed.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _values(document: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Every value a run printed, gated or not, per workload."""
    return {workload: {name: metric["value"]
                       for name, metric in (result["metrics"]
                                            | result["ungated"]).items()}
            for workload, result in document["workloads"].items()}


def measure_sets(work_dir: str, seeds: List[int], seconds: float
                 ) -> Dict[str, Any]:
    """Timed + traced sets at ``seeds``; per-metric summaries."""
    sets = []
    for position, seed in enumerate(seeds):
        common = ["--seed", str(seed), "--seconds", str(seconds)]
        sets.append({
            "seed": seed,
            "timed": _values(_run(work_dir, f"set{position}-timed",
                                  common)),
            "traced": _values(_run(work_dir, f"set{position}-traced",
                                   common + ["--trace", "1"])),
        })
    summary: Dict[str, Any] = {}
    for mode in ("timed", "traced"):
        summary[mode] = {}
        for workload in WORKLOADS:
            summary[mode][workload] = {}
            for name in sets[0][mode][workload]:
                values = [entry[mode][workload][name] for entry in sets]
                first, second = values[0], values[1]
                middle = (abs(first) + abs(second)) / 2.0
                record = stats.summarize(values)
                record["values"] = values
                record["spread_between_sets"] = (
                    abs(first - second) / middle if middle else 0.0)
                summary[mode][workload][name] = record
    return {"seeds": seeds, "metrics": summary}


def measure_sweep(work_dir: str, seeds: int, repeats: int, seconds: float,
                  bounds: Dict[str, float]) -> Dict[str, Any]:
    """Timed runs over ``seeds`` seeds per workload, ``repeats`` times."""
    result: Dict[str, Any] = {}
    failures = []
    wide = []
    for workload in WORKLOADS:
        rounds = []
        for repeat in range(repeats):
            runs = [_values(_run(
                work_dir, f"sweep-{workload}-{repeat}-{seed}",
                ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)]))[workload]
                for seed in range(seeds)]
            rounds.append({name: stats.summarize([run[name] for run in runs])
                           | {"values": [run[name] for run in runs]}
                           for name in runs[0]})
        result[workload] = rounds
        for name, bound in bounds.items():
            for repeat, summary in enumerate(rounds):
                spread = summary[name]["spread"]
                note = (f"{workload} {name} repeat {repeat}: spread "
                        f"{spread:.4f}, bound {bound}")
                if name != "setup_s" and spread > bound:
                    failures.append(note)
                elif name != "setup_s" and spread > bound / 3:
                    wide.append(note)
            first = rounds[0][name]["median"]
            for summary in rounds[1:]:
                shift = (summary[name]["median"] - first) / abs(first)
                if abs(shift) > bound:
                    failures.append(f"{workload} {name}: median moved "
                                    f"{shift:+.4f} between repeats "
                                    f"(bound {bound})")
    return {"seeds": seeds, "repeats": repeats, "workloads": result,
            "failures": failures, "above_third_of_bound": wide}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = float(benchmark["run_seconds"])
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    work_dir = os.path.join(ROOT, ".bench_build", "e2e",
                            f"baseline-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        document: Dict[str, Any] = {
            "host": {"cpus": os.cpu_count(),
                     "python": platform.python_version(),
                     "machine": platform.machine()},
            "run_seconds": seconds,
            "bounds": bounds,
        }
        failures: List[str] = []
        sets = measure_sets(work_dir, list(SET_SEEDS), seconds)
        document["sets"] = sets
        for workload, metrics in sets["metrics"]["timed"].items():
            for name, bound in bounds.items():
                between = metrics[name]["spread_between_sets"]
                if between > bound:
                    failures.append(f"{workload} {name}: sets at one seed "
                                    f"differ by {between:.4f} (bound "
                                    f"{bound})")
        document["sweep"] = measure_sweep(work_dir, SWEEP_SEEDS,
                                          SWEEP_REPEATS, seconds, bounds)
        failures += document["sweep"]["failures"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for failure in failures:
        print("unsteady:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
