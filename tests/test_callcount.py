"""scripts/callcount.py: the call counts of a benchmark pass are a pure
function of the code and the seed, and counting them writes nothing into
the checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CACHES = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


def checkout_files() -> dict:
    """Relative path -> (size, mtime) of each file in the checkout, caches aside."""
    files = {}
    for folder, subfolders, names in os.walk(ROOT):
        subfolders[:] = [name for name in subfolders if name not in CACHES]
        for name in names:
            stat = os.stat(os.path.join(folder, name))
            files[os.path.relpath(os.path.join(folder, name), ROOT)] = (stat.st_size, stat.st_mtime_ns)
    return files


def callcount(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "callcount.py"), "--workload", workload,
         "--seed", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    (line,) = done.stdout.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("workload", ["sig_batch", "nn_train"])
def test_two_runs_count_the_same_calls_and_leave_the_checkout_alone(workload):
    before = checkout_files()
    first, second = callcount(workload), callcount(workload)
    assert checkout_files() == before
    assert first == second
    assert first["workload"] == workload and first["frames"] > 0
    for event in ("call", "c_call"):
        assert first[event] > 0
        assert first[f"{event}_per_frame"] == first[event] / first["frames"]
