"""Count the Python and C calls of one benchmark pass: a work count that host noise cannot move.

    python3 scripts/callcount.py --workload sig_batch --seed 1 [--size full|tiny]

Imports lightband from this checkout's src/ and the workload from
perfbench/workloads.py, and edits neither. The workload is built in a
temporary directory; set-up, the oracle and one warm-up pass run first, so
that lazy imports, caches and first-use tables are out of the way. One more
pass then runs under sys.setprofile, which sees every `call` (a Python
function) and `c_call` (a builtin or C function) event of this thread.

Prints one JSON line: the workload, seed and size, the pass's frames, and
each event kind in total and per frame. Exits 1, naming each problem on
stderr, if the workload recorded one: a failed CLI call or a digest that
differs from perfbench/expected_digests.json (checked at full size).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import REPORTED, expected_digests, import_lightband  # noqa: E402  (perfbench/run.py)

EVENTS = ("call", "c_call")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPORTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def counted_pass(workload) -> tuple:
    """(PassResult, Counter of profile events) of one run_pass."""
    counts = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        result = workload.run_pass()
    finally:
        sys.setprofile(None)
    return result, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lightband()
    from workloads import SIZES, WORKLOADS

    with tempfile.TemporaryDirectory(prefix="lightband-callcount-") as workdir:
        workload = WORKLOADS[args.workload](
            args.seed, SIZES[args.size], workdir, expected_digests(args.size, args.seed)
        )
        workload.setup()
        workload.prepare_oracle()
        workload.run_pass()
        result, counts = counted_pass(workload)
    line = {"workload": args.workload, "seed": args.seed, "size": args.size, "frames": result.frames}
    for event in EVENTS:
        line[event] = counts[event]
        line[f"{event}_per_frame"] = counts[event] / result.frames
    print(json.dumps(line))
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if workload.problems else 0


if __name__ == "__main__":
    sys.exit(main())
