"""Smoke test of the benchmark harness at toy size; it asserts no timings.

    python -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", "--size", "toy",
         *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_writes_every_metric(workload, trace):
    detail, result = result_lines(
        bench("--workload", workload, "--seed", 3, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert detail["env"]["seed"] == 3 and detail["env"]["nproc"] >= 1
    assert detail["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat_at_fixed_seed(workload):
    first, second = (result_lines(bench("--workload", workload, "--seed", 5,
                                        "--trace", 1))[0] for _ in range(2))
    assert first["counts"] == second["counts"]
    assert first["digests"] == second["digests"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
