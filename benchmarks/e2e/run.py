#!/usr/bin/env python3
"""End-to-end serving benchmark of the bundle-charging planning service.

Starts the real server (``python -m repro.cli serve --port 0 --jobs 2``)
as a subprocess, drives a workload over HTTP from this one process,
checks every answer, and prints each metric by name with its unit.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 benchmarks/e2e/run.py --workload plan_sparse --seed 0 \\
        --seconds 10 --trace 0

Without ``--workload`` all four workloads run in turn (a set) and the
JSON's ``metrics`` is keyed by workload.  ``--trace 1`` (or
``--traced``) replaces the timed run by the traced one, which prints
the per-layer metrics.  ``--smoke`` shrinks every count, not the
shapes, for a quick check of the same code paths.  ``--out FILE`` also
writes the full result, with sample counts, as JSON.

Exit status: 0 when every self-check passed, 1 when one failed (each is
named on standard error), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from typing import Any, Dict, List, Optional

from catalog import END_TO_END, PER_LAYER
from counters import CounterError, InstructionCounter
from stats import supported, tail_count
from workloads import FULL, SMOKE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

DEFAULT_SECONDS = 10.0
SMOKE_SECONDS = 2.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end serving benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates every input (default: 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of a timed phase (default: "
                             f"{DEFAULT_SECONDS:g}, {SMOKE_SECONDS:g} "
                             f"with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run with per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced counts for a quick check")
    parser.add_argument("--out", default=None,
                        help="also write the full result to this file")
    return parser


def _print_outcome(outcome, seed: int, trace: int) -> None:
    print(f"== {outcome.workload}  seed={seed}  "
          f"{'traced' if trace else 'timed'} ==")
    rows = [(name, metric, "") for name, metric in outcome.metrics.items()]
    rows += [(name, metric, ", ungated") for name, metric
             in outcome.info.items()]
    for name, (value, unit, samples), note in rows:
        if samples is not None:
            note = f"n={samples}" + note
        for level in (90.0, 99.0):
            if (samples is not None and f"_p{level:g}" in name
                    and not supported(samples, level)):
                note += f", {tail_count(samples, level):.1f} beyond"
        print(f"  {name:<40} {value:>14.6g} {unit:<12} {note}")
    print(f"  requests: {outcome.attempted} attempted, "
          f"{outcome.failed} failed; checks: "
          f"{'ok' if outcome.correct else 'FAILED'}")
    for name, (detail, count) in outcome.problems.items():
        print(f"check failed: {outcome.workload}: {name} "
              f"(x{count}): {detail}", file=sys.stderr)


def _metric_values(outcome) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome.metrics.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the repro sources are missing ({SRC}); run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A SIGTERM unwinds through the finally blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    import runner  # imports repro, so only once src/ is on the path

    try:
        InstructionCounter(os.getpid()).close()
    except CounterError as error:
        print(f"error: no hardware instruction counter: {error}",
              file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    expected = set(PER_LAYER if args.trace else END_TO_END)
    work_dir = os.path.join(ROOT, ".bench_build", "e2e",
                            f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    outcomes = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                outcome = runner.traced_run(workload, args.seed, sizes,
                                            ROOT, work_dir)
            else:
                outcome = runner.timed_run(workload, args.seed, seconds,
                                           sizes, ROOT, work_dir)
            if set(outcome.metrics) != expected:
                raise RuntimeError(
                    f"{name} produced metrics "
                    f"{sorted(set(outcome.metrics) ^ expected)} outside "
                    f"the catalog")
            _print_outcome(outcome, args.seed, args.trace)
            outcomes.append(outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = all(outcome.correct for outcome in outcomes)
    result = {
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": (_metric_values(outcomes[0]) if args.workload else
                    {outcome.workload: _metric_values(outcome)
                     for outcome in outcomes}),
    }
    if args.out:
        document = {
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "smoke": args.smoke, "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": {
                outcome.workload: {
                    "correct": outcome.correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "problems": {name: detail for name, (detail, _)
                                 in outcome.problems.items()},
                    "metrics": {name: {"value": value, "unit": unit,
                                       "samples": samples}
                                for name, (value, unit, samples)
                                in outcome.metrics.items()},
                    "ungated": {name: {"value": value, "unit": unit,
                                       "samples": samples}
                                for name, (value, unit, samples)
                                in outcome.info.items()},
                } for outcome in outcomes},
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
