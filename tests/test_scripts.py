"""Smoke tests: the experiment scripts run end to end on the public API, and
the benchmark tracer still finds every function it wraps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, artifacts",
    [
        (
            "run_signature_experiment.py",
            [],
            ["train.csv", "eval.csv", "signatures.csv", "confusion.csv"],
        ),
        ("run_mlp_experiment.py", ["--epochs", "2"], ["dataset.csv", "model.txt", "metrics.csv"]),
    ],
)
def test_experiment_script_runs(tmp_path, script, args, artifacts):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert "accuracy:" in done.stdout
    for name in artifacts:
        assert (tmp_path / name).stat().st_size > 0, name


def test_perfbench_tracer_targets_exist():
    """perfbench/tracer.py patches each (owner, attr) in TARGETS by reading
    owner.__dict__; a renamed or deleted target breaks a traced benchmark run.
    The file is executed from its text, so nothing is written beside it."""
    path = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [
        (owner.__name__, attr)
        for owner, attr, *_ in namespace["TARGETS"]
        if attr not in owner.__dict__
    ]
    assert missing == []
