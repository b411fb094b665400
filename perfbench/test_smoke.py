"""Smoke test of the benchmark harness at tiny sizes; not part of tier-1.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with a 3-gesture script and
1 epoch. The test checks the result line against BENCHMARK.json: every
declared metric appears with its unit, and the output checks pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
from run import REPORTED  # noqa: E402  (figures the report line carries)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_checks_pass(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    assert report["failed_frac"] == 0
    assert report["problems"] == []
    if not trace:
        for name, unit in REPORTED[workload]:
            assert report["metrics"][name]["unit"] == unit


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
