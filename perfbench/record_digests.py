"""Record the output digests the benchmark checks on its reference seeds.

    python3 perfbench/record_digests.py

Runs every workload once, briefly, at full size on each reference seed and
writes what the run produced to perfbench/expected_digests.json. Only run
it when a change is meant to alter an emitted label, a learned signature, a
trained model or a prediction, and say why in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)  # the default seed and a second one
WORKLOADS = ("sig_batch", "live_stream", "nn_train")


def main() -> int:
    seeds = {}
    for seed in SEEDS:
        digests = {}
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            report = next(line for line in done.stdout.splitlines() if line.startswith("report "))
            for artifact, digest in json.loads(report[len("report "):])["digests"].items():
                if digests.setdefault(artifact, digest) != digest:
                    sys.exit(f"seed {seed}: {artifact} differs between workloads")
        seeds[str(seed)] = dict(sorted(digests.items()))
    (HERE / "expected_digests.json").write_text(json.dumps({"seeds": seeds}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
