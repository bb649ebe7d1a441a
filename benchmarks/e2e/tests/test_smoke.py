"""A reduced run through the same code paths prints every metric."""

import json
import os
import shutil
import subprocess
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
RUN = os.path.join(E2E, "run.py")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT, script=RUN, timeout=120):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    benchmark = _benchmark()
    completed = _run("--smoke", "--seed", "3", "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [workload["name"] for workload in benchmark["workloads"]]
    assert sorted(result["metrics"]) == sorted(names)
    expected = {metric["name"]: metric["unit"]
                for metric in benchmark[section]}
    printed = {tuple(line.split()[:3:2]) for line in lines[:-1]
               if line.startswith("  ")}
    for workload in names:
        metrics = result["metrics"][workload]
        assert {name: metric["unit"] for name, metric in metrics.items()} \
            == expected
        assert all(isinstance(metric["value"], float)
                   for metric in metrics.values())
    assert set(expected.items()) <= printed


def test_benchmark_json_matches_the_catalog():
    from catalog import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    benchmark = _benchmark()
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} \
        == PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(E2E, copy, ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "plan_sparse", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     script=str(copy / "run.py"), timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
