"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sig_batch nn_train --seeds 1 2 3 4 5

Runs one workload and seed at a time, from the root of the checkout, with the
settings in BENCHMARK.json. For each end-to-end metric it prints the median
of the runs and the distance between the first and third quartiles as a
share of that median, next to the metric's bound, and flags a spread above
a third of the bound. A run that is not correct is reported and makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds, trace) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result line here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {}
    all_correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            if not result["correct"] or result["failed"]:
                all_correct = False
                print(f"{workload} seed {seed}: NOT correct ({result['failed']} failed)")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            ), flush=True)
        results[workload] = runs
        print(f"-- {workload}: median, (q3 - q1) / median, bound")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            if bound is None or share < bound / 3:
                flag = ""
            else:
                flag = "  <-- above a third of its bound"
            print(f"   {name:<32} {statistics.median(values):>14.6g} {share:>8.4f} {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
