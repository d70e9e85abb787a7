"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and twice traced, checks that
each printed metric name and unit match BENCHMARK.json and that the traced
counters repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNTERS = ("genetic.fitness.calls", "genetic.fitness.repeats", "genetic.repeat_ratio",
            "simulator.step.calls")


def run(script, workload, trace, cwd=None):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_the_declared_metrics(workload):
    plain = result_of(run(BENCH / "run.py", workload, 0))
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first = result_of(run(BENCH / "run.py", workload, 1))
    second = result_of(run(BENCH / "run.py", workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path / BENCH.name / "run.py", SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
