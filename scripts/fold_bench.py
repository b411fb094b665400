"""Fold several perfbench/run.py runs of a parent and a change into BENCH_<pr>.json.

    python3 scripts/fold_bench.py --pr N --title "..." --parent-commit SHA \\
        [--claim sig_batch:frames_per_ref] --seen-seeds 1 --note order="..." \\
        --parent runs/parent/*.out --change runs/change/*.out > BENCH_N.json

Each input file holds the stdout of one `perfbench/run.py` run: its `report`
line (workload, seed, trace mode, machine) and its last line, the result
(correct, attempted, failed, metrics). Untraced runs are folded per workload
and side: for every metric the median, the inclusive quartiles and the
(seed, value) runs. Traced runs (--trace 1) are folded the same way under
"traced".

The no_regression block holds, per untraced workload and BENCHMARK.json
end-to-end metric, the two medians, the change median as a share of the
parent's beside the metric's bound, the parent's interquartile range as a
share of its median, and a verdict: `ok`; `worse`, when the change median is
worse than the parent's by more than the bound; or `unresolved`, when the
parent's spread exceeds the bound, unless every change run beats every
parent run.

With --claim, the k-th parent run of a workload and seed pairs with the k-th
change run of it, in the order given; the claim block counts the pairs in
which the change is better on the claimed metric (BENCHMARK.json gives the
direction) and holds `met` when it is better in at least nine of ten pairs
and its median is better than the parent's by more than the parent's
interquartile range. The benchmark revision is a sha256 over BENCHMARK.json
and every file under its paths, in the checkout this script belongs to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path) -> dict:
    """The report and result lines of one run.py output file, merged."""
    lines = Path(path).read_text().strip().splitlines()
    reports = [line for line in lines if line.startswith("report ")]
    if not reports:
        raise ValueError(f"{path}: no report line")
    report = json.loads(reports[-1].removeprefix("report "))
    result = json.loads(lines[-1])
    return {**report, **result}


def quartiles(values) -> tuple:
    """(q1, median, q3), inclusive; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def fold_side(runs) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "runs": [[run["seed"], value] for run, value in zip(runs, values)],
        }
    return {
        "runs": len(runs),
        "all_correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "metrics": metrics,
    }


def pairs(parent_runs, change_runs, metric) -> list:
    """[seed, round, parent value, change value] for each pair, round from 1."""
    by_seed = defaultdict(list)
    for run in change_runs:
        by_seed[run["seed"]].append(run)
    rounds = defaultdict(int)
    out = []
    for run in parent_runs:
        seed = run["seed"]
        if rounds[seed] < len(by_seed[seed]):
            other = by_seed[seed][rounds[seed]]
            rounds[seed] += 1
            out.append([seed, rounds[seed], run["metrics"][metric]["value"],
                        other["metrics"][metric]["value"]])
    return out


def wins(table, higher_is_better) -> int:
    """How many pairs of a pairs() table the change is better in; a tie is no win."""
    return sum(c > p if higher_is_better else c < p for *_, p, c in table)


def verdicts(entry, end_to_end) -> dict:
    """The no-regression figures of one folded workload, per end-to-end metric
    of BENCHMARK.json that its runs report."""
    out = {}
    for spec in end_to_end:
        name, bound, higher = spec["name"], spec["bound"], spec["better"] == "higher"
        if name not in entry["parent"]["metrics"]:
            continue
        parent, change = (entry[side]["metrics"][name] for side in ("parent", "change"))
        p_runs, c_runs = ([v for _, v in m["runs"]] for m in (parent, change))
        beats_all = min(c_runs) > max(p_runs) if higher else max(c_runs) < min(p_runs)
        share = iqr_share = None
        if parent["median"]:
            share = change["median"] / parent["median"]
            iqr_share = (parent["q3"] - parent["q1"]) / abs(parent["median"])
        if beats_all:
            verdict = "ok"
        elif share is None or iqr_share > bound:
            verdict = "unresolved"
        else:
            verdict = "worse" if (1 - share if higher else share - 1) > bound else "ok"
        out[name] = {
            "better": spec["better"],
            "parent_median": parent["median"],
            "change_median": change["median"],
            "change_share": share,
            "bound": bound,
            "parent_iqr_share": iqr_share,
            "verdict": verdict,
        }
    return out


def benchmark_revision(root: Path) -> str:
    spec_path = root / "BENCHMARK.json"
    digest = hashlib.sha256(spec_path.read_bytes())
    for top in json.loads(spec_path.read_text())["paths"]:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def fold(parent_runs, change_runs, end_to_end, claim, seen_seeds) -> dict:
    """The folded runs; claim is (workload, metric) or None."""
    if claim:
        metric = claim[1]
        higher_is_better = next(m["better"] == "higher" for m in end_to_end if m["name"] == metric)
    groups = defaultdict(lambda: {"parent": [], "change": []})
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for run in runs:
            groups[(run["trace"], run["workload"])][side].append(run)
    sections = {"workloads": {}, "traced": {}}
    for (trace, name), sides in sorted(groups.items()):
        if not (sides["parent"] and sides["change"]):
            raise ValueError(f"{name} (trace {trace}) has runs on one side only")
        entry = {side: fold_side(runs) for side, runs in sides.items()}
        if not trace:
            entry["change_over_parent"] = {
                m: entry["change"]["metrics"][m]["median"] / v["median"]
                for m, v in entry["parent"]["metrics"].items() if v["median"]
            }
            if claim:
                table = pairs(sides["parent"], sides["change"], metric)
                entry[f"{metric}_pairs"] = {
                    "pairs": len(table),
                    "change_wins": wins(table, higher_is_better),
                    "per_pair": table,
                }
        sections["traced" if trace else "workloads"][name] = entry
    seeds = sorted({run["seed"] for run in parent_runs + change_runs if not run["trace"]})
    out = {
        "seeds": seeds,
        "seeds_used_while_writing": sorted(seen_seeds),
        "unseen_seeds": [seed for seed in seeds if seed not in seen_seeds],
        "no_regression": {name: verdicts(entry, end_to_end)
                          for name, entry in sections["workloads"].items()},
    }
    if claim:
        out["claim"] = _claim(sections, claim, higher_is_better, seen_seeds)
    return {**out, **sections}


def _claim(sections, claim, higher_is_better, seen_seeds) -> dict:
    workload, metric = claim
    if workload not in sections["workloads"]:
        raise ValueError(f"no untraced {workload} runs to claim a gain on")
    claimed = sections["workloads"][workload]
    table, won = (claimed[f"{metric}_pairs"][k] for k in ("per_pair", "change_wins"))
    parent = claimed["parent"]["metrics"][metric]
    change_median = claimed["change"]["metrics"][metric]["median"]
    unseen = [row for row in table if row[0] not in seen_seeds]
    iqr = parent["q3"] - parent["q1"]
    gain = change_median - parent["median"] if higher_is_better else parent["median"] - change_median
    return {
        "workload": workload,
        "metric": metric,
        "better": "higher" if higher_is_better else "lower",
        "parent_median": parent["median"],
        "change_median": change_median,
        "parent_iqr": iqr,
        "change_wins": won,
        "pairs": len(table),
        "unseen_change_wins": wins(unseen, higher_is_better),
        "unseen_pairs": len(unseen),
        "met": bool(table) and won >= math.ceil(0.9 * len(table)) and gain > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC, for a change that claims a gain")
    parser.add_argument("--seen-seeds", type=int, nargs="*", default=[],
                        help="seeds measured while the change was written")
    parser.add_argument("--parent", nargs="+", required=True, help="run.py output files")
    parser.add_argument("--change", nargs="+", required=True, help="run.py output files")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT",
                        help="a free-text field to add, such as how the runs were ordered")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        names = sorted(m["name"] for m in spec["end_to_end"])
        if metric not in names:
            parser.error(f"--claim metric must be one of {names}")
        claim = (workload, metric)
    parent_runs = [read_run(path) for path in args.parent]
    change_runs = [read_run(path) for path in args.change]
    machine = parent_runs[0]["machine"]
    folded = fold(parent_runs, change_runs, spec["end_to_end"], claim, set(args.seen_seeds))
    out = {
        "pr": args.pr,
        "title": args.title,
        "command": " ".join(spec["command"]) + " --workload W --seed S --seconds N --trace T",
        "parent_commit": args.parent_commit,
        "benchmark_revision": benchmark_revision(ROOT),
        "quartiles": "statistics.quantiles(method='inclusive') over the runs of one side",
        "pairs": "the k-th parent run of a workload and seed with the k-th change run of it",
        "host": {k: machine.get(k) for k in ("nproc", "cpu", "python", "numpy", "blas",
                                             "blas_version", "blas_threads")},
        **dict(note.split("=", 1) for note in args.note),
        **folded,
    }
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
