"""Smoke tests: the experiment scripts run end to end on the public API."""

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
