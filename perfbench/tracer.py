"""Span tracing around lightband's public functions, installed from outside.

The benchmark wraps each public function of the lightband modules with a
recorder while a traced pass runs, then restores the originals. Nothing in
the package itself is instrumented, so an untraced pass runs the code as it
ships. Each call becomes a span (id, parent id, name, start, end); a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

from lightband import baseline, cli, evaluate, ingest, mlp, signature, simulate, types

# (owner, attribute, span name, keep per-call durations). Functions are
# patched on their module, methods and constructors on their class, so every
# caller inside the package (which looks them up at call time) is traced.
# The output writers the CLI calls (signature and label tables, metrics) are
# left unwrapped: their time counts in cli.<subcommand>.self_s.
TARGETS = (
    (simulate, "synth_trace", "simulate.synth_trace", False),
    (ingest, "write_collection_csv", "ingest.write_collection_csv", False),
    (ingest, "read_collection_csv", "ingest.read_collection_csv", False),
    (ingest, "parse_serial_line", "ingest.parse_serial_line", True),
    (types.SensorFrame, "__init__", "types.SensorFrame", False),
    (types.LabeledTrace, "__init__", "types.LabeledTrace", False),
    (baseline.BaselineTracker, "update", "baseline.update", True),
    (signature, "generate_signatures", "signature.generate_signatures", False),
    (signature, "classify_trace", "signature.classify_trace", False),
    (signature, "classify_frame", "signature.classify_frame", True),
    (signature, "read_signature_csv", "signature.read_signature_csv", False),
    (mlp, "train", "mlp.train", False),
    (mlp, "loss_and_gradients", "mlp.loss_and_gradients", False),
    (mlp, "forward", "mlp.forward", False),
    (mlp, "predict_labels", "mlp.predict_labels", False),
    (mlp, "trace_to_dataset", "mlp.trace_to_dataset", False),
    (mlp, "save_model", "mlp.save_model", False),
    (mlp, "load_model", "mlp.load_model", False),
    (evaluate, "confusion", "evaluate.confusion", False),
    (evaluate, "render_report", "evaluate.render_report", False),
)

CLI_SUBCOMMANDS = ("simulate", "train-signatures", "classify", "nn-train", "nn-predict")

SELF_TIME_SPANS = (
    "simulate.synth_trace",
    "ingest.write_collection_csv",
    "ingest.read_collection_csv",
    "types.SensorFrame",
    "types.LabeledTrace",
    "baseline.update",
    "signature.generate_signatures",
    "signature.classify_trace",
    "signature.classify_frame",
    "signature.read_signature_csv",
    "mlp.train",
    "mlp.loss_and_gradients",
    "mlp.forward",
    "mlp.save_model",
    "mlp.load_model",
    "mlp.trace_to_dataset",
    "evaluate.confusion",
    "evaluate.render_report",
) + tuple(f"cli.{name}" for name in CLI_SUBCOMMANDS)

P50_SPANS = ("ingest.parse_serial_line", "baseline.update", "signature.classify_frame")

CALL_COUNT_SPANS = ("types.SensorFrame", "baseline.update")

# Every per-layer metric the traced run reports, with its unit. A layer that
# does no work on a workload reports 0 there.
LAYER_METRICS = (
    tuple((f"{name}.self_s", "s") for name in SELF_TIME_SPANS)
    + tuple((f"{name}.p50_us", "us") for name in P50_SPANS)
    + tuple((f"{name}.calls", "count") for name in CALL_COUNT_SPANS)
    + (
        ("simulate.frames_generated", "count"),
        ("ingest.bytes_written", "B"),
        ("ingest.bytes_read", "B"),
        ("ingest.lines_rejected", "count"),
        ("signature.gesture_match_frac", "fraction"),
        ("signature.transition_frac", "fraction"),
        ("mlp.epoch_ms", "ms"),
        ("mlp.steps", "count"),
        ("mlp.predict_labels.rows_per_s", "1/s"),
        ("mlp.predict_labels.p50_us", "us"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    )
)


def _cli_span_name(argv) -> str:
    argv = list(argv or ())
    if not argv:
        return "cli.main"
    if argv[0] == "nn" and len(argv) > 1:
        return f"cli.nn-{argv[1]}"
    return f"cli.{argv[0]}"


def _path_size(target) -> int:
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return 0


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start ns, end ns)
        self._stack = []  # open spans: [id, ns covered by children]
        self._next_id = 0
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.calls = Counter()
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.predict_rows = []  # (rows, ns) per predict_labels call
        self.epochs = 0

    def wrap(self, name, fn, keep_durations=False, span_name=None):
        """Return fn wrapped in a span; span_name(args) overrides name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = span_name(args) if span_name else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                tracer._on_error(label)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.self_ns[label] += duration - span[1]
                tracer.total_ns[label] += duration
                tracer.calls[label] += 1
                tracer.spans.append(
                    (span[0], parent[0] if parent else -1, label, start, end)
                )
                if keep_durations:
                    tracer.durations[label].append(duration)
            tracer._on_result(label, args, kwargs, result, duration)
            return result

        return traced

    def _on_error(self, name):
        if name in ("ingest.parse_serial_line", "ingest.read_collection_csv"):
            self.counts["ingest.lines_rejected"] += 1

    def _on_result(self, name, args, kwargs, result, duration):
        if name == "simulate.synth_trace":
            self.counts["simulate.frames_generated"] += len(result)
        elif name == "ingest.write_collection_csv":
            sink = args[1] if len(args) > 1 else kwargs.get("sink")
            self.counts["ingest.bytes_written"] += _path_size(sink)
        elif name == "ingest.read_collection_csv":
            source = args[0] if args else kwargs.get("source")
            self.counts["ingest.bytes_read"] += _path_size(source)
        elif name == "signature.classify_frame":
            state = args[3] if len(args) > 3 else kwargs["state"]
            if state.recent_labels[-1] is not types.GestureLabel.RELAX:
                self.counts["signature.gesture_matches"] += 1
            if result is types.GestureLabel.TRANSITION:
                self.counts["signature.transitions"] += 1
        elif name == "mlp.predict_labels":
            self.predict_rows.append((len(result), duration))
        elif name == "mlp.train":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self.epochs += cfg.epochs

    def install(self):
        """Patch every target; returns a callable that restores them."""
        originals = []
        for owner, attr, name, keep in TARGETS:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, keep))
        originals.append((cli, "main", cli.main))
        cli.main = self.wrap(
            "cli.main", cli.main, span_name=lambda args: _cli_span_name(args[0] if args else None)
        )

        def uninstall():
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

        return uninstall

    def layer_metrics(self) -> dict:
        """Per-layer figures for this pass, keyed by LAYER_METRICS names."""
        out = {}
        for name in SELF_TIME_SPANS:
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in P50_SPANS:
            samples = self.durations.get(name)
            out[f"{name}.p50_us"] = statistics.median(samples) / 1e3 if samples else 0.0
        for name in CALL_COUNT_SPANS:
            out[f"{name}.calls"] = self.calls[name]
        for name in (
            "simulate.frames_generated",
            "ingest.bytes_written",
            "ingest.bytes_read",
            "ingest.lines_rejected",
        ):
            out[name] = self.counts[name]
        frames = self.calls["signature.classify_frame"]
        out["signature.gesture_match_frac"] = (
            self.counts["signature.gesture_matches"] / frames if frames else 0.0
        )
        out["signature.transition_frac"] = (
            self.counts["signature.transitions"] / frames if frames else 0.0
        )
        out["mlp.epoch_ms"] = (
            self.total_ns["mlp.train"] / 1e6 / self.epochs if self.epochs else 0.0
        )
        out["mlp.steps"] = self.calls["mlp.loss_and_gradients"]
        batch = [(rows, ns) for rows, ns in self.predict_rows if rows > 1]
        batch_ns = sum(ns for _, ns in batch)
        out["mlp.predict_labels.rows_per_s"] = (
            sum(rows for rows, _ in batch) / (batch_ns / 1e9) if batch_ns else 0.0
        )
        single = [ns for rows, ns in self.predict_rows if rows == 1]
        out["mlp.predict_labels.p50_us"] = statistics.median(single) / 1e3 if single else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, trace_id) -> None:
        """Write this pass's spans as gzipped JSON lines, oldest start first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0)
        with gzip.open(path, "wt") as out:
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                out.write(json.dumps({
                    "trace": trace_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": start - origin,
                    "end_ns": end - origin,
                }) + "\n")
