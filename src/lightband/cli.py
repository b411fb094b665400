"""Command-line pipeline: simulate, learn signatures, classify, train the
network, evaluate, and print a fiber's critical angle.

Exit codes are stable for scripting: 0 success, 1 runtime or domain
failure, 2 usage or argument failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace

from . import evaluate, ingest, mlp, signature, simulate
from .baseline import BaselineConfig
from .types import CLASS_LABELS, LABEL_TEXT, NUM_CHANNELS, ROW_BLOCK, GestureLabel


def _baseline_levels(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(","))
    if len(values) != NUM_CHANNELS:
        raise argparse.ArgumentTypeError(f"expected {NUM_CHANNELS} comma-separated levels")
    return values


def _sensor_set(text: str) -> tuple:
    try:
        return signature.check_active_sensors(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightband",
        description="Gesture recognition pipeline for 5-channel light-intensity streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled collection CSV")
    p.add_argument("--script", required=True, help="file with one gesture name per line")
    p.add_argument("--profiles", help="gesture,sensor,delta CSV (built-in defaults if omitted)")
    p.add_argument("--out", required=True, help="collection CSV to write")
    sim = simulate.SimConfig
    p.add_argument("--seed", type=int, default=sim.seed)
    p.add_argument("--interval", type=float, default=sim.sample_interval)
    p.add_argument("--noise-sigma", type=float, default=sim.noise_sigma)
    p.add_argument("--drift", type=float, default=sim.drift)
    p.add_argument("--gesture-hold", type=float, default=sim.gesture_hold)
    p.add_argument("--relax-hold", type=float, default=sim.relax_hold)
    p.add_argument("--transition-time", type=float, default=sim.transition_time)
    p.add_argument("--baselines", type=_baseline_levels, default=sim.baseline_levels)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-signatures", help="learn a signature table from labeled traces")
    p.add_argument("traces", nargs="+", help="collection CSV paths")
    p.add_argument("--out", required=True, help="signature CSV to write")
    p.add_argument("--active", type=_sensor_set, default=signature.DEFAULT_ACTIVE_SENSORS)
    p.set_defaults(func=cmd_train_signatures)

    p = sub.add_parser("classify", help="classify a trace with a signature table")
    p.add_argument("--trace", required=True, help="collection CSV to classify")
    p.add_argument("--table", required=True, help="signature CSV")
    p.add_argument("--out", required=True, help="t_rel,label CSV to write")
    p.add_argument("--alpha", type=float, default=BaselineConfig.alpha)
    p.add_argument("--window", type=float, default=BaselineConfig.window)
    p.add_argument("--tolerance", type=float, default=signature.DEFAULT_TOLERANCE)
    p.add_argument("--horizon", type=int, default=signature.DEFAULT_TRANSITION_HORIZON)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nn", help="train or run the neural classifier")
    p.add_argument("mode", choices=["train", "predict"])
    p.add_argument("--trace", help="collection CSV providing features and labels")
    p.add_argument("--x", help="headerless 5-column feature CSV")
    p.add_argument("--y", help="class-index label file (one per line)")
    p.add_argument("--model", required=True, help="model file (written by train, read by predict)")
    p.add_argument("--metrics", help="per-epoch metrics CSV (train only)")
    p.add_argument("--out", help="predicted class-index file (predict only)")
    p.add_argument("--split", type=int, default=880, help="train/test boundary row")
    net = mlp.MlpConfig
    p.add_argument("--epochs", type=int, default=net.epochs)
    p.add_argument("--batch-size", type=int, default=net.batch_size)
    p.add_argument("--dropout", type=float, default=net.dropout_rate)
    p.add_argument("--l2", type=float, default=net.l2)
    p.add_argument("--seed", type=int, default=net.seed)
    p.add_argument("--normalize", action="store_true", help="scale intensities to [0, 1]")
    p.set_defaults(func=cmd_nn)

    p = sub.add_parser("physics", help="print the critical angle for a fiber")
    p.add_argument("n_medium", type=float)
    p.add_argument("n_cladding", type=float)
    p.set_defaults(func=cmd_physics)

    return parser


def cmd_simulate(args) -> int:
    try:
        cfg = simulate.SimConfig(
            sample_interval=args.interval,
            gesture_hold=args.gesture_hold,
            relax_hold=args.relax_hold,
            transition_time=args.transition_time,
            noise_sigma=args.noise_sigma,
            drift=args.drift,
            baseline_levels=args.baselines,
            seed=args.seed,
        )
        script = simulate.read_script(args.script)
        profiles = simulate.DEFAULT_PROFILES
        if args.profiles:
            profiles = signature.read_signature_csv(args.profiles)
            simulate.profile_deltas(profiles)  # an all-zero gesture is a usage error
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = simulate.synth_trace(script, profiles, cfg)
    ingest.write_collection_csv(trace, args.out)
    counts = Counter(trace.labels)
    duration = trace.t_rel[-1] if len(trace) else 0.0
    summary = " ".join(f"{label.name.lower()}={counts[label]}" for label in GestureLabel)
    print(f"wrote {len(trace)} frames ({duration:.2f}s) to {args.out}: {summary}")
    return 0


def cmd_train_signatures(args) -> int:
    traces = [ingest.read_collection_csv(path) for path in args.traces]
    table = signature.generate_signatures(traces, active=args.active)
    signature.write_signature_csv(table, args.out)
    print("gesture  sensor  delta")
    for (gesture, sensor), delta in table.deltas.items():
        print(f"{gesture.name.lower():<7}  {sensor:>6}  {delta:>10.3f}")
    print(f"wrote signature table to {args.out}")
    return 0


def cmd_classify(args) -> int:
    try:
        cfg = BaselineConfig(alpha=args.alpha, window=args.window)
        state = signature.ClassifierState(
            tolerance=args.tolerance, transition_horizon=args.horizon
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = ingest.read_collection_csv(args.trace)
    table = signature.read_signature_csv(args.table)
    predicted = signature.classify_trace(trace, table, cfg, state)
    with open(args.out, "w", newline="") as handle:
        handle.write("t_rel,label\n")
        for start in range(0, len(predicted), ROW_BLOCK):
            end = start + ROW_BLOCK
            handle.write("".join(map(
                "{!r},{}\n".format,
                trace.t_rel[start:end].tolist(),
                map(LABEL_TEXT.__getitem__, predicted[start:end]),
            )))
    print(f"wrote {len(predicted)} labels to {args.out}")
    matrix = evaluate.confusion(trace.labels, predicted)
    print(evaluate.render_report(matrix), end="")
    return 0


def _nn_dataset(args, need_labels: bool) -> tuple:
    if args.trace:
        return mlp.trace_to_dataset(ingest.read_collection_csv(args.trace))
    x = mlp.load_features_csv(args.x)
    labels = None
    if args.y:
        # training sizes its output layer from the labels, so they must be classes
        labels = mlp.load_labels_csv(args.y, len(CLASS_LABELS) if need_labels else None)
        if len(labels) != x.shape[0]:
            raise ValueError(f"{x.shape[0]} feature rows but {len(labels)} labels")
    return x, labels


def cmd_nn(args) -> int:
    training = args.mode == "train"
    try:
        if args.trace and (args.x or args.y):
            raise ValueError("give either --trace or --x/--y, not both")
        if not (args.trace or args.x):
            raise ValueError("need --trace or --x")
        if training:
            if not (args.trace or args.y):
                raise ValueError("training needs labels: give --trace or --y")
            if args.split < 0:
                raise ValueError(f"--split must be >= 0, got {args.split}")
            cfg = mlp.MlpConfig(
                dropout_rate=args.dropout,
                l2=args.l2,
                epochs=args.epochs,
                batch_size=args.batch_size,
                seed=args.seed,
                normalize=args.normalize,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x, labels = _nn_dataset(args, need_labels=training)
    if training:
        (x_train, y_train), (x_test, y_test) = mlp.split_dataset(x, labels, args.split)
        if len(y_train) == 0:
            raise ValueError("training split is empty")
        cfg = replace(cfg, output_dim=max(labels) + 1)
        validation = (x_test, y_test) if len(y_test) else None
        model, report = mlp.train(x_train, y_train, cfg, validation=validation)
        mlp.save_model(model, args.model)
        if args.metrics:
            mlp.write_metrics_csv(report, args.metrics)
        print(f"trained {cfg.epochs} epochs on {len(y_train)} rows; model -> {args.model}")
        if report.train_acc:
            line = f"final train acc {report.train_acc[-1]:.4f}"
            if report.val_acc:
                line += f", val acc {report.val_acc[-1]:.4f}"
            print(line)
        if len(y_test):
            predicted = mlp.predict_labels(model, x_test)
            _print_confusion(y_test, predicted)
        return 0

    model = mlp.load_model(args.model)
    predicted = mlp.predict_labels(model, x)
    if args.out:
        mlp.write_labels_csv(predicted, args.out)
        print(f"wrote {len(predicted)} predictions to {args.out}")
    if labels is not None:
        _print_confusion(labels, predicted)
    return 0


def _print_confusion(truth_indices, predicted_indices) -> None:
    if not all(map(_known_classes, (truth_indices, predicted_indices))):
        print("labels outside the gesture set; skipping confusion report")
        return
    truth = list(map(CLASS_LABELS.__getitem__, truth_indices))
    predicted = list(map(CLASS_LABELS.__getitem__, predicted_indices))
    matrix = evaluate.confusion(truth, predicted)
    print(evaluate.render_report(matrix), end="")


def _known_classes(indices) -> bool:
    """Every index is a class index; a bare tuple index would wrap negatives."""
    return not indices or (min(indices) >= 0 and max(indices) < len(CLASS_LABELS))


def cmd_physics(args) -> int:
    try:
        angle = simulate.critical_angle(args.n_medium, args.n_cladding)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{angle:.2f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a run too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
