"""Command-line pipeline: simulate, learn signatures, classify, train the
network, evaluate, and print a fiber's critical angle.

Exit codes are stable for scripting: 0 success, 1 runtime or domain
failure, 2 usage or argument failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import cache

import numpy as np

from . import evaluate, ingest, signature, simulate
from .baseline import BaselineConfig
from .types import CLASS_LABELS, LABEL_TEXT, NUM_CHANNELS


# nn train's default train/test boundary row
NN_SPLIT = 880


def _baseline_levels(text: str) -> tuple:
    try:
        values = tuple(map(float, text.split(",")))
    except ValueError:
        values = ()
    if len(values) != NUM_CHANNELS:
        raise argparse.ArgumentTypeError(f"expected {NUM_CHANNELS} comma-separated numbers")
    return values


def _sensor_set(text: str) -> tuple:
    try:
        return signature.check_active_sensors(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses an argument it does not know itself.

    argparse hands a subcommand's unknown arguments back to the root
    parser, whose usage line names no subcommand; here the subcommand's
    own parser reports them, with its usage line (`lightband nn predict`).
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lightband",
        description="Gesture recognition pipeline for 5-channel light-intensity streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a settings flag's dest names the config field it sets, and a flag not
    # given is left out of args, so _config keeps the class's own default
    unset = {"argument_default": argparse.SUPPRESS}
    p = sub.add_parser("simulate", help="generate a labeled collection CSV", **unset)
    p.add_argument("--script", required=True, help="file with one gesture name per line")
    p.add_argument("--profiles", default=None,
                   help="gesture,sensor,delta CSV (built-in defaults if omitted)")
    p.add_argument("--out", required=True, help="collection CSV to write")
    p.add_argument("--seed", type=int)
    p.add_argument("--interval", dest="sample_interval", metavar="INTERVAL", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--drift", type=float)
    p.add_argument("--gesture-hold", type=float)
    p.add_argument("--relax-hold", type=float)
    p.add_argument("--transition-time", type=float)
    p.add_argument("--baselines", dest="baseline_levels", metavar="BASELINES",
                   type=_baseline_levels)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-signatures", help="learn a signature table from labeled traces")
    p.add_argument("traces", nargs="+", help="collection CSV paths")
    p.add_argument("--out", required=True, help="signature CSV to write")
    p.add_argument("--active", type=_sensor_set, default=signature.DEFAULT_ACTIVE_SENSORS)
    p.set_defaults(func=cmd_train_signatures)

    p = sub.add_parser("classify", help="classify a trace with a signature table", **unset)
    p.add_argument("--trace", required=True, help="collection CSV to classify")
    p.add_argument("--table", required=True, help="signature CSV")
    p.add_argument("--out", required=True, help="t_rel,label CSV to write")
    p.add_argument("--alpha", type=float)
    p.add_argument("--window", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--horizon", dest="transition_horizon", metavar="HORIZON", type=int)
    p.set_defaults(func=cmd_classify)

    nn = sub.add_parser("nn", help="train or run the neural classifier")
    modes = nn.add_subparsers(dest="mode", required=True)
    train = modes.add_parser("train", help="train a model on a labeled trace", **unset)
    predict = modes.add_parser("predict", help="predict class indices with a model")
    for p, func in ((train, cmd_nn_train), (predict, cmd_nn_predict)):
        p.add_argument("--trace", required=True, help="collection CSV of readings and labels")
        p.add_argument("--model", required=True, help="model file")
        p.set_defaults(func=func)
    predict.add_argument("--out", help="predicted class-index file")
    train.add_argument("--metrics", default=None, help="per-epoch metrics CSV")
    train.add_argument("--split", type=int, default=NN_SPLIT, help="train/test boundary row")
    train.add_argument("--epochs", type=int)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--dropout", dest="dropout_rate", type=float)
    train.add_argument("--l2", type=float)
    train.add_argument("--seed", type=int)
    train.add_argument("--normalize", action="store_true", help="scale intensities to [0, 1]")

    p = sub.add_parser("physics", help="print the critical angle for a fiber")
    p.add_argument("n_medium", type=float)
    p.add_argument("n_cladding", type=float)
    p.set_defaults(func=cmd_physics)

    return parser


class _UsageError(Exception):
    """A bad option value or --script or --profiles contents: exit 2."""


@contextmanager
def _usage():
    """Re-raise a ValueError from a command's settings phase as a _UsageError."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(exc) from None


def _config(cls, args):
    """A cls built from the given flags named after its fields; every other
    field keeps cls's default."""
    names = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def cmd_simulate(args) -> int:
    with _usage():
        cfg = _config(simulate.SimConfig, args)
        script = simulate.read_script(args.script)
        profiles = simulate.DEFAULT_PROFILES
        if args.profiles:
            profiles = signature.read_signature_csv(args.profiles)
            simulate.profile_deltas(profiles)  # an all-zero gesture is a usage error
    trace = simulate.synth_trace(script, profiles, cfg)
    ingest.write_collection_csv(trace, args.out)
    counts = np.bincount(trace.labels, minlength=len(CLASS_LABELS)).tolist()
    duration = trace.t_rel[-1]  # never empty: a script has a relax hold
    summary = " ".join(
        f"{LABEL_TEXT[label]}={count}" for label, count in zip(CLASS_LABELS, counts)
    )
    print(f"wrote {len(trace)} frames ({duration:.2f}s) to {args.out}: {summary}")
    return 0


def cmd_train_signatures(args) -> int:
    traces = [ingest.read_collection_csv(path) for path in args.traces]
    table = signature.generate_signatures(traces, active=args.active)
    signature.write_signature_csv(table, args.out)
    print("gesture  sensor  delta")
    for (gesture, sensor), delta in table.deltas.items():
        print(f"{LABEL_TEXT[gesture]:<7}  {sensor:>6}  {delta:>10.3f}")
    print(f"wrote signature table to {args.out}")
    return 0


def cmd_classify(args) -> int:
    with _usage():
        cfg = _config(BaselineConfig, args)
        state = _config(signature.ClassifierState, args)
    trace = ingest.read_collection_csv(args.trace)
    table = signature.read_signature_csv(args.table)
    predicted = signature.classify_trace(trace, table, cfg, state)
    ingest.write_label_file(trace.t_rel, predicted, args.out)
    print(f"wrote {len(predicted)} labels to {args.out}")
    _print_confusion(trace.labels, predicted)
    return 0


def cmd_nn_train(args) -> int:
    from . import mlp  # only the nn commands load the network

    if args.split < 0:
        raise _UsageError(f"--split must be >= 0, got {args.split}")
    with _usage():
        cfg = _config(mlp.MlpConfig, args)
    x, labels = mlp.trace_to_dataset(ingest.read_collection_csv(args.trace))
    (x_train, y_train), (x_test, y_test) = mlp.split_dataset(x, labels, args.split)
    cfg = replace(cfg, output_dim=labels.max(initial=0) + 1)
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
        _print_confusion(y_test, np.asarray(mlp.predict_labels(model, x_test)))
    return 0


def cmd_nn_predict(args) -> int:
    from . import mlp

    x, labels = mlp.trace_to_dataset(ingest.read_collection_csv(args.trace))
    model = mlp.load_model(args.model)
    # a one-row trace takes predict_labels' one-row path, which returns [int]
    predicted = np.asarray(mlp.predict_labels(model, x))
    if args.out:
        mlp.write_labels_csv(predicted, args.out)
        print(f"wrote {len(predicted)} predictions to {args.out}")
    _print_confusion(labels, predicted)
    return 0


def _print_confusion(truth, predicted) -> None:
    print(evaluate.render_report(evaluate.confusion(truth, predicted)), end="")


def cmd_physics(args) -> int:
    with _usage():
        angle = simulate.critical_angle(args.n_medium, args.n_cladding)
    print(f"{angle:.2f}")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser for main, built on its first call.

    argparse keeps no state between parses, so reusing the parser gives
    what a new one would; each subcommand's function is bound when it is
    built.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except (_UsageError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a run too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
