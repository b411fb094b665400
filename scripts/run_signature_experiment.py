#!/usr/bin/env python3
"""End-to-end signature experiment on synthetic data.

Generates a training trace and a disjoint evaluation trace, learns the
per-gesture signature table, classifies the evaluation trace, and prints
the learned table plus the confusion report. All artifacts land in the
output directory.
"""

import argparse
from pathlib import Path

from lightband.baseline import BaselineConfig
from lightband.evaluate import confusion, render_report, write_counts_csv
from lightband.ingest import write_collection_csv
from lightband.signature import classify_trace, generate_signatures, write_signature_csv
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace
from lightband.types import GestureLabel

SCRIPT = [GestureLabel.EXTEND, GestureLabel.FIST, GestureLabel.ONE] * 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--noise-sigma", type=float, default=2.0)
    parser.add_argument("--out-dir", type=Path, default=Path("runs/signature"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    sim = dict(
        gesture_hold=5.0,
        relax_hold=2.0,
        transition_time=5.0,
        noise_sigma=args.noise_sigma,
        drift=0.05,
    )
    train_trace = synth_trace(SCRIPT, DEFAULT_PROFILES, SimConfig(**sim, seed=args.seed))
    eval_trace = synth_trace(SCRIPT, DEFAULT_PROFILES, SimConfig(**sim, seed=args.seed + 101))
    write_collection_csv(train_trace, args.out_dir / "train.csv")
    write_collection_csv(eval_trace, args.out_dir / "eval.csv")

    table = generate_signatures([train_trace])
    write_signature_csv(table, args.out_dir / "signatures.csv")
    print("learned signatures (gesture, sensor -> delta):")
    for (gesture, sensor), delta in table.deltas.items():
        print(f"  {gesture.name.lower():<7} {sensor}  {delta:9.3f}")

    predicted = classify_trace(eval_trace, table, BaselineConfig(alpha=0.2, window=12.0))
    matrix = confusion(eval_trace.labels, predicted)
    write_counts_csv(matrix, args.out_dir / "confusion.csv")
    print()
    print(render_report(matrix), end="")
    print(f"\nartifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
