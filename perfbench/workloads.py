"""The three benchmark workloads, each driven through lightband's public API.

A workload builds its inputs from the benchmark seed in setup(), runs one
pass of its timed body in run_pass(), and checks every output it produced.
Seed s makes the training trace and s + 1 the evaluation trace.

- sig_batch: the CLI chain simulate x2 -> train-signatures -> classify.
- live_stream: the evaluation trace replayed one serial line at a time,
  through the signature classifier and a single-row MLP predict.
- nn_train: `nn train` on the criterion-4 dataset, then `nn predict` on a
  22,200-frame trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import lightband
from lightband import baseline, cli, evaluate, ingest, mlp, signature, simulate, types

E = types.GestureLabel.EXTEND
F = types.GestureLabel.FIST
O = types.GestureLabel.ONE

ACCURACY_LINE = re.compile(r"^accuracy: ([0-9.]+)%$", re.MULTILINE)


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TINY only exercises the harness."""

    name: str
    script_reps: int  # [EXTEND, FIST, ONE] * script_reps makes the 22,200-frame traces
    nn_reps: int  # script repetitions of the criterion-4 dataset
    nn_split: int  # its train / held-out boundary row
    epochs: int  # nn_train epochs
    live_epochs: int  # live_stream model epochs; a single-row predict costs the same either way


FULL = Size("full", script_reps=20, nn_reps=4, nn_split=880, epochs=150, live_epochs=10)
TINY = Size("tiny", script_reps=1, nn_reps=1, nn_split=220, epochs=1, live_epochs=1)
SIZES = {size.name: size for size in (FULL, TINY)}

# The criterion-4 dataset of the acceptance suite; only its seed comes from
# the benchmark seed.
NN_SIM = dict(gesture_hold=1.2, relax_hold=0.8, transition_time=0.2, noise_sigma=2.0, drift=0.05)


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_text(path) -> str:
    with open(path, newline="") as handle:
        return handle.read()


def data_rows(path) -> int:
    """Rows of a collection CSV, header excluded."""
    with open(path, "rb") as handle:
        return handle.read().count(b"\n") - 1


def labels_csv_text(trace, labels) -> str:
    """The label file `lightband classify` writes for these labels."""
    return "t_rel,label\n" + "".join(
        f"{frame.t_rel},{label.name.lower()}\n" for frame, label in zip(trace.frames, labels)
    )


def class_indices_text(indices) -> str:
    """The prediction file `lightband nn predict` writes for these indices."""
    return "".join(f"{int(i)}\n" for i in indices)


def stream_labels(trace, table) -> tuple:
    """Serial-path oracle: (emitted labels, raw labels) frame by frame."""
    tracker = baseline.BaselineTracker(baseline.BaselineConfig())
    state = signature.ClassifierState()
    emitted, raw = [], []
    for frame in trace.frames:
        emitted.append(signature.classify_frame(frame, tracker.update(frame), table, state))
        raw.append(state.recent_labels[-1])
    return emitted, raw


def label_properties(emitted, raw) -> dict:
    n = len(emitted)
    return {
        "gesture_match_frac": sum(r is not types.GestureLabel.RELAX for r in raw) / n,
        "transition_frac": sum(e is types.GestureLabel.TRANSITION for e in emitted) / n,
    }


def script_text(gestures) -> str:
    return "".join(g.name.lower() + "\n" for g in gestures)


def sig_batch_calls(path, seed: int) -> tuple:
    """The sig_batch CLI chain; path(name) locates a file in the workdir."""
    return (
        ["simulate", "--script", path("script.txt"), "--out", path("train.csv"),
         "--seed", str(seed)],
        ["simulate", "--script", path("script.txt"), "--out", path("eval.csv"),
         "--seed", str(seed + 1)],
        ["train-signatures", path("train.csv"), "--out", path("signatures.csv")],
        ["classify", "--trace", path("eval.csv"), "--table", path("signatures.csv"),
         "--out", path("labels.csv")],
    )


def signature_csv_text(table) -> str:
    out = io.StringIO()
    signature.write_signature_csv(table, out)
    return out.getvalue()


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(int(rank), 1) - 1]


@dataclass
class PassResult:
    start: float  # perf_counter() when the timed body began
    end: float  # and when it ended
    frames: int  # frames of trace data through the body
    attempted: int  # operations: CLI calls or readings
    failed: int
    figures: dict = field(default_factory=dict)  # workload-specific values of this pass
    rates: dict = field(default_factory=dict)  # name -> (count, start, end): count per second

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Workload:
    """Shared plumbing: working directory, CLI calls, output checks."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: str, expected: dict):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.expected = expected  # artifact -> sha256 for this seed and size, or {}
        self.script = [E, F, O] * size.script_reps
        self.problems = []  # failed checks, in words
        self._first_digests = {}
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare_oracle(self):
        """Compute reference outputs once, after set-up; most workloads need none."""

    def run_cli(self, argv) -> tuple:
        """Run one CLI call in-process; returns (exit code or None, stdout)."""
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback breaks the CLI contract; count it
                err.write(f"{type(exc).__name__}: {exc}")
                code = None
        if code != 0:
            self.problems.append(f"{' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def check_digest(self, artifact: str, digest: str) -> bool:
        """The same bytes on every pass, and the recorded bytes for this seed."""
        first = self._first_digests.setdefault(artifact, digest)
        ok = True
        if digest != first:
            self.problems.append(f"{artifact} changed between passes")
            ok = False
        want = self.expected.get(artifact)
        if want is not None and want != digest:
            self.problems.append(f"{artifact} digest {digest[:12]} != recorded {want[:12]}")
            ok = False
        return ok

    def accuracy_from_report(self, stdout: str) -> float:
        match = ACCURACY_LINE.search(stdout)
        if match is None:
            self.problems.append("no accuracy line in a CLI report")
            return 0.0
        return float(match.group(1))

    def digests(self) -> dict:
        return dict(self._first_digests)


class SigBatch(Workload):
    """simulate x2 -> train-signatures -> classify, all through cli.main."""

    name = "sig_batch"
    # artifact -> file each call writes, in call order
    OUTPUTS = (
        ("simulate_train_csv", "train.csv"),
        ("simulate_eval_csv", "eval.csv"),
        ("signatures_csv", "signatures.csv"),
        ("labels_csv", "labels.csv"),
    )

    def setup(self):
        with open(self.path("script.txt"), "w") as handle:
            handle.write(script_text(self.script))

    def run_pass(self) -> PassResult:
        p = self.path
        calls = sig_batch_calls(p, self.seed)
        start = perf_counter()
        results = [self.run_cli(argv) for argv in calls]
        end = perf_counter()
        failed = 0
        for (artifact, filename), (code, _) in zip(self.OUTPUTS, results):
            ok = code == 0 and self.check_digest(artifact, sha256_file(p(filename)))
            failed += not ok
        self.classify_stdout = results[-1][1]
        frames = data_rows(p("train.csv")) + data_rows(p("eval.csv"))
        return PassResult(start, end, frames, len(calls), failed)

    def finish(self) -> dict:
        """Serial-path oracle on the last pass's files, and input properties."""
        eval_trace = ingest.read_collection_csv(self.path("eval.csv"))
        table = signature.read_signature_csv(self.path("signatures.csv"))
        emitted, raw = stream_labels(eval_trace, table)
        oracle_ok = labels_csv_text(eval_trace, emitted) == read_text(self.path("labels.csv"))
        if not oracle_ok:
            self.problems.append("classify labels differ from the serial path")
        return {
            "failed": int(not oracle_ok),
            "accuracy_pct": self.accuracy_from_report(self.classify_stdout),
            "inputs": {
                "frames_per_pass": 2 * len(eval_trace),
                "csv_bytes_per_pass": os.path.getsize(self.path("train.csv"))
                + os.path.getsize(self.path("eval.csv")),
                **label_properties(emitted, raw),
            },
        }


class LiveStream(Workload):
    """One caller, closed loop, no pacing: a reading at a time."""

    name = "live_stream"

    def setup(self):
        cfg = simulate.SimConfig(seed=self.seed)
        train_trace = simulate.synth_trace(self.script, cfg=cfg)
        self.eval_trace = simulate.synth_trace(
            self.script, cfg=simulate.SimConfig(seed=self.seed + 1)
        )
        self.table = signature.generate_signatures([train_trace])
        # what the wristband sends: five integers and a carriage return
        self.lines = [
            ",".join(str(v) for v in frame.channels) + "\r\n" for frame in self.eval_trace.frames
        ]
        self.interval = cfg.sample_interval
        self.start_unix = cfg.start_unix
        nn_trace = simulate.synth_trace(
            [E, F, O] * self.size.nn_reps, cfg=simulate.SimConfig(**NN_SIM, seed=self.seed)
        )
        x, y = mlp.trace_to_dataset(nn_trace)
        split = self.size.nn_split
        mlp_cfg = mlp.MlpConfig(output_dim=max(y) + 1, epochs=self.size.live_epochs, seed=self.seed)
        self.model, _ = mlp.train(x[:split], y[:split], mlp_cfg)

    def prepare_oracle(self):
        """Labels the batch paths give for the same seed and inputs.

        Runs sig_batch's CLI chain, then `nn predict` with this model, as
        separate `lightband` processes, so the streaming run is compared with
        the batch code and its peak memory stays its own.
        """
        p = self.path
        with open(p("script.txt"), "w") as handle:
            handle.write(script_text(self.script))
        mlp.save_model(self.model, p("live_model.txt"))
        predict = ["nn", "predict", "--trace", p("eval.csv"), "--model", p("live_model.txt"),
                   "--out", p("oracle_nn.csv")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lightband.__file__)))
        for argv in sig_batch_calls(p, self.seed) + (predict,):
            done = subprocess.run(
                [sys.executable, "-m", "lightband.cli", *argv],
                env=env, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                self.problems.append(f"oracle {argv[0]} exited {done.returncode}: {done.stderr}")
                self.oracle_labels = self.oracle_nn = []
                return
        if read_text(p("signatures.csv")) != signature_csv_text(self.table):
            self.problems.append("in-memory signature table differs from train-signatures output")
        self.oracle_labels = [
            types.parse_label(row.split(",")[1])
            for row in read_text(p("labels.csv")).splitlines()[1:]
        ]
        self.oracle_nn = [int(row) for row in read_text(p("oracle_nn.csv")).splitlines()]

    def run_pass(self) -> PassResult:
        parse = ingest.parse_serial_line
        frame_type = types.SensorFrame
        classify = signature.classify_frame
        predict = mlp.predict_labels
        update = baseline.BaselineTracker(baseline.BaselineConfig()).update
        state = signature.ClassifierState()
        table, model = self.table, self.model
        interval, start_unix = self.interval, self.start_unix
        n = len(self.lines)
        labels = [None] * n
        nn_labels = [None] * n
        sig_ns = [0] * n
        nn_ns = [0] * n
        clock = perf_counter_ns
        start = perf_counter()
        for i, line in enumerate(self.lines):
            t0 = clock()
            try:
                values = parse(line)
                t_rel = i * interval
                frame = frame_type(t_rel=t_rel, t_unix=start_unix + t_rel, channels=values)
                labels[i] = classify(frame, update(frame), table, state)
                t1 = clock()
                nn_labels[i] = predict(model, [values])[0]
                t2 = clock()
            except ValueError:
                continue
            sig_ns[i] = t1 - t0
            nn_ns[i] = t2 - t1
        end = perf_counter()
        if len(self.oracle_labels) != n or len(self.oracle_nn) != n:
            failed = n
        else:
            failed = sum(
                got is not want or nn_got != nn_want
                for got, want, nn_got, nn_want in zip(
                    labels, self.oracle_labels, nn_labels, self.oracle_nn
                )
            )
        if failed:
            self.problems.append(f"{failed} readings disagree with the batch labels")
        if None not in labels:
            self.check_digest("labels_csv", sha256_text(labels_csv_text(self.eval_trace, labels)))
        self.check_digest("live_nn_labels", sha256_text(class_indices_text(nn_labels)))
        self.labels = labels
        figures = {
            "sig_latency_p50_us": percentile(sig_ns, 50) / 1e3,
            "sig_latency_p99_us": percentile(sig_ns, 99) / 1e3,
            "nn_latency_p50_us": percentile(nn_ns, 50) / 1e3,
            "nn_latency_p99_us": percentile(nn_ns, 99) / 1e3,
        }
        return PassResult(start, end, n, n, failed, figures)

    def finish(self) -> dict:
        emitted, raw = stream_labels(self.eval_trace, self.table)
        matrix = evaluate.confusion(self.eval_trace.labels, self.labels)
        return {
            "failed": 0,
            "accuracy_pct": evaluate.accuracy_percent(matrix),
            "inputs": {
                "readings_per_pass": len(self.lines),
                "line_bytes_per_pass": sum(len(line) for line in self.lines),
                **label_properties(emitted, raw),
            },
        }


class NnTrain(Workload):
    """`nn train` on the criterion-4 dataset, then `nn predict` on a big trace."""

    name = "nn_train"

    def setup(self):
        dataset = simulate.synth_trace(
            [E, F, O] * self.size.nn_reps, cfg=simulate.SimConfig(**NN_SIM, seed=self.seed)
        )
        ingest.write_collection_csv(dataset, self.path("dataset.csv"))
        big = simulate.synth_trace(self.script, cfg=simulate.SimConfig(seed=self.seed + 1))
        ingest.write_collection_csv(big, self.path("predict.csv"))
        self.dataset_frames = len(dataset)
        self.predict_frames = len(big)

    def run_pass(self) -> PassResult:
        p = self.path
        train_argv = [
            "nn", "train", "--trace", p("dataset.csv"), "--model", p("model.txt"),
            "--metrics", p("metrics.csv"), "--split", str(self.size.nn_split),
            "--epochs", str(self.size.epochs), "--batch-size", "20", "--dropout", "0.3",
            "--l2", "0.01", "--seed", str(self.seed),
        ]
        predict_argv = [
            "nn", "predict", "--trace", p("predict.csv"), "--model", p("model.txt"),
            "--out", p("predictions.csv"),
        ]
        t0 = perf_counter()
        train_code, self.train_stdout = self.run_cli(train_argv)
        t1 = perf_counter()
        predict_code, self.predict_stdout = self.run_cli(predict_argv)
        t2 = perf_counter()
        train_ok = train_code == 0
        train_ok = self.check_digest("model_txt", sha256_file(p("model.txt"))) and train_ok
        train_ok = self.check_digest("metrics_csv", sha256_file(p("metrics.csv"))) and train_ok
        predict_ok = predict_code == 0 and self.check_digest(
            "predictions_csv", sha256_file(p("predictions.csv"))
        )
        rates = {
            "train_rows_per_s": (self.size.nn_split * self.size.epochs, t0, t1),
            "predict_rows_per_s": (self.predict_frames, t1, t2),
        }
        frames = self.dataset_frames + self.predict_frames
        failed = (not train_ok) + (not predict_ok)
        return PassResult(t0, t2, frames, 2, failed, rates=rates)

    def finish(self) -> dict:
        """Model file round trip and predictions against an in-process predict."""
        model = mlp.load_model(self.path("model.txt"))
        out = io.StringIO()
        mlp.save_model(model, out)
        failed = 0
        if out.getvalue() != read_text(self.path("model.txt")):
            self.problems.append("model file does not survive load_model/save_model")
            failed += 1
        x, _ = mlp.trace_to_dataset(ingest.read_collection_csv(self.path("predict.csv")))
        expected = class_indices_text(mlp.predict_labels(model, x))
        if expected != read_text(self.path("predictions.csv")):
            self.problems.append("nn predict output differs from predict_labels")
            failed += 1
        return {
            "failed": failed,
            "accuracy_pct": self.accuracy_from_report(self.train_stdout),
            "extra": {"predict_accuracy_pct": self.accuracy_from_report(self.predict_stdout)},
            "inputs": {
                "dataset_frames": self.dataset_frames,
                "train_rows": self.size.nn_split,
                "heldout_rows": self.dataset_frames - self.size.nn_split,
                "rows_x_epochs_per_pass": self.size.nn_split * self.size.epochs,
                "predict_rows_per_pass": self.predict_frames,
                "csv_bytes_per_pass": os.path.getsize(self.path("dataset.csv"))
                + os.path.getsize(self.path("predict.csv")),
            },
        }


WORKLOADS = {cls.name: cls for cls in (SigBatch, LiveStream, NnTrain)}
