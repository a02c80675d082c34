"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each run here is tiny (one second of measurement); the point is that
every metric appears with its unit, that a wrong answer fails the run,
and that the accuracy figures depend on the seed alone.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as perfrun  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_command():
    assert WORKLOAD_NAMES == list(perfrun.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(perfrun.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(perfrun.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _cli("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for metric in expected:
        assert printed[metric["name"]] == metric["unit"]
    if not trace:
        for value in result["metrics"].values():
            assert value["value"] > 0


def test_corrupted_reference_fails_the_run():
    result, lines, _ = perfrun.run("ingest-int", 4, 1.0, False,
                                   corrupt_reference=True)
    assert result["correct"] is False
    assert result["metrics"] == {}
    wrong = [line for line in lines if line.startswith("WRONG ANSWER")]
    assert wrong and "ingest-int" in wrong[0] and "key" in wrong[0]


def test_same_seed_reproduces_accuracy_exactly():
    first = perfrun.run("tenants-mixed", 5, 1.0, False)[2]
    second = perfrun.run("tenants-mixed", 5, 1.0, False)[2]
    for name in ("activeness_fpr", "size_are"):
        assert first[name] == second[name]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", WORKLOAD_NAMES[0], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
