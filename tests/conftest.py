import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

import lightband
from lightband.baseline import BaselineTracker
from lightband.ingest import COLLECTION_HEADER
from lightband.mlp import PRED_EPS, TrainReport, _one_blas_thread, init_model, one_hot
from lightband.simulate import profile_deltas
from lightband.types import (
    CLASS_LABELS,
    INTENSITY_MAX,
    INTENSITY_MIN,
    NUM_CHANNELS,
    GestureLabel,
    LabeledTrace,
)

# A larger example budget for the property tests that hold a fast path to
# its oracle bit for bit: `pytest --hypothesis-profile=oracle` runs each of
# them oracle_examples(n) times, ten times its usual n.
settings.register_profile("oracle", max_examples=1000)


def oracle_examples(n: int) -> int:
    """n under the default profile; n times the loaded profile's budget over
    the default budget under another, such as "oracle"."""
    return n * settings().max_examples // settings.get_profile("default").max_examples

R = GestureLabel.RELAX
E = GestureLabel.EXTEND
F = GestureLabel.FIST
O = GestureLabel.ONE
T = GestureLabel.TRANSITION


def members(codes) -> list:
    """An array of class indices (a trace's labels, classify_trace's
    output) as the GestureLabel members they stand for."""
    return [CLASS_LABELS[i] for i in codes.tolist()]


def readings(trace) -> list:
    """A trace's rows as signature.Recognizer.push takes them: (t_rel, five
    ints) pairs."""
    return list(zip(trace.t_rel.tolist(), trace.channels.tolist()))


def file_lines(text: str) -> list:
    """The lines of a file holding text: each ends at "\r\n", "\r" or "\n".

    The readers' line rule, written independently of them.
    """
    return re.split(r"\r\n|\r|\n", text)


def run_python(*args) -> subprocess.CompletedProcess:
    """Run this Python on args in a child process that imports this lightband.

    A crash in the child (a signal) shows as a negative return code instead
    of taking the test session down with it. Output is UTF-8 text.
    """
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(lightband.__file__).parent.parent), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, encoding="utf-8", timeout=120
    )


# A non-BMP character, which numpy 2.4.6's loadtxt can crash on in an int64
# field, and a collection file that holds it in line 3's second intensity.
NON_BMP = "\U000fa7e4"


def write_non_bmp_collection(path) -> None:
    rows = [f"{i * 0.02!r},0.0,1,2,3,4,5,relax," for i in range(8)]
    rows[1] = f"0.02,0.0,1,{NON_BMP},3,4,5,relax,"
    path.write_text(COLLECTION_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def make_trace(channel_rows, labels, interval=0.02):
    """Build a trace with evenly spaced timestamps from raw channel rows."""
    t_rel = np.arange(len(channel_rows)) * interval
    return LabeledTrace(
        t_rel=t_rel, t_unix=t_rel, channels=channel_rows, labels=labels
    )


def flat_rows(value, n, channels=5):
    return [[value] * channels for _ in range(n)]


def random_rows(rng: np.random.Generator, n):
    return [[int(v) for v in rng.integers(0, 1024, size=5)] for _ in range(n)]


def ewma_step(prev, x, alpha):
    """One smoothing step: (1 - alpha) * prev + alpha * x."""
    return (1 - alpha) * prev + alpha * x


class ReferenceTracker(BaselineTracker):
    """BaselineTracker with update written a channel at a time through
    ewma_step: the reference the tracker's own update is held to."""

    def update(self, frame):
        t = frame.t_rel
        if self._last_t is not None and t < self._last_t:
            raise ValueError(f"non-monotonic timestamp: {t} after {self._last_t}")
        self._last_t = t
        cutoff = t - self.cfg.window
        baselines = []
        for ch in range(NUM_CHANNELS):
            x = frame.channels[ch]
            prev = self._ewma[ch]
            smoothed = x if prev is None else ewma_step(prev, x, self.cfg.alpha)
            self._ewma[ch] = smoothed
            window = self._maxima[ch]
            while window and window[0][0] <= cutoff:
                window.popleft()
            while window and window[-1][1] <= smoothed:
                window.pop()
            window.append((t, smoothed))
            baselines.append(window[0][1])
        return baselines


def one_shot_synth_trace(script, profiles, cfg) -> LabeledTrace:
    """synth_trace as it was before it drew a block of rows at a time: one
    (n, 2, 5) draw of standard normals for the whole trace, then the
    arithmetic in place on its strided drift and noise halves. The reference
    the blocked draw is held to, byte for byte."""
    by_gesture = profile_deltas(profiles)
    n_relax = cfg.frames_for(cfg.relax_hold)
    n_ramp = cfg.frames_for(cfg.transition_time)
    n_hold = cfg.frames_for(cfg.gesture_hold)
    ramp_up = np.arange(1, n_ramp + 1) / (n_ramp + 1)
    relax = (GestureLabel.RELAX, np.zeros(NUM_CHANNELS), np.zeros(n_relax))
    sections = [] if script else [relax]
    for gesture in script:
        deltas = np.array(by_gesture[gesture])
        sections += [
            relax,
            (GestureLabel.TRANSITION, deltas, ramp_up),
            (gesture, deltas, np.ones(n_hold)),
            (GestureLabel.TRANSITION, deltas, ramp_up[::-1]),
        ]
    labels = [label for label, _, progress in sections for _ in progress]
    n = len(labels)
    targets = np.concatenate([np.outer(progress, deltas) for _, deltas, progress in sections])
    z = np.random.default_rng(cfg.seed).standard_normal((n, 2, NUM_CHANNELS))
    values, noise = z[:, 0], z[:, 1]
    values *= cfg.drift
    values += 0.0
    values[0] += cfg.baseline_levels
    np.add.accumulate(values, axis=0, out=values)
    values += targets
    noise *= cfg.noise_sigma
    noise += 0.0
    values += noise
    np.clip(np.rint(values, out=values), INTENSITY_MIN, INTENSITY_MAX, out=values)
    t_rel = np.arange(n) * cfg.sample_interval
    return LabeledTrace(
        t_rel=t_rel, t_unix=cfg.start_unix + t_rel, channels=values.astype(np.int64),
        labels=labels,
    )


# --- reference: the per-tensor training loop, allocating a fresh array for
# every temporary; train(), loss_and_gradients and train's step alone
# (test_mlp.train_step_output) are held to it bit for bit. Its matmuls run
# under the same one-thread OpenBLAS rule as mlp's, since a gemm split over
# threads can round differently ---


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@_one_blas_thread()
def reference_forward(model, x, training, rng):
    last = len(model.weights) - 1
    rate = model.config.dropout_rate if training else 0.0
    inputs, zs, scales = [x], [], []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        scale = None
        if i == last:
            a = reference_sigmoid(z)
        else:
            a = np.maximum(z, 0.0)
            if rate > 0:
                scale = (rng.random(a.shape) >= rate) / (1.0 - rate)
                a = a * scale
        scales.append(scale)
        inputs.append(a)
    return a, (inputs, zs, scales)


def reference_bce(pred, target, model, l2):
    """Mean binary cross-entropy of predictions clamped to [PRED_EPS,
    1 - PRED_EPS], plus l2 times the hidden weights' squared sum: the loss
    train reports and loss_and_gradients returns."""
    p = np.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    bce = -np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    return float(bce) + l2 * sum(float(np.sum(w * w)) for w in model.weights[:-1])


def reference_labels(model, x):
    """Argmax class per row of the whole-array inference forward pass on
    the prepared rows: the oracle for predict_labels, which runs blocks."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if model.config.normalize:
        x = x / 1023.0
    return np.argmax(reference_forward(model, x, False, None)[0], axis=1).tolist()


@_one_blas_thread()
def reference_gradients(model, x, target, rng):
    l2 = model.config.l2
    out, (inputs, zs, scales) = reference_forward(model, x, True, rng)
    n_rows, n_out = target.shape
    last = len(model.weights) - 1
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = (out - target) / (n_out * n_rows)
    for i in range(last, -1, -1):
        grads_w[i] = delta.T @ inputs[i]
        grads_b[i] = delta.sum(axis=0)
        if i < last:
            grads_w[i] += 2.0 * l2 * model.weights[i]
        if i > 0:
            upstream = delta @ model.weights[i]
            if scales[i - 1] is not None:
                upstream = upstream * scales[i - 1]
            delta = upstream * (zs[i - 1] > 0)
    return grads_w + grads_b


def reference_train(x, labels, cfg, validation=None):
    def prepare(rows):
        rows = np.asarray(rows, dtype=float)
        return rows / 1023.0 if cfg.normalize else rows

    def score(rows, indices, losses, accs):
        pred = reference_forward(model, rows, False, None)[0]
        losses.append(reference_bce(pred, one_hot(indices, cfg.output_dim), model, cfg.l2))
        accs.append(float(np.mean(np.argmax(pred, axis=1) == np.array(indices))))

    x = prepare(x)
    targets = one_hot(labels, cfg.output_dim)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg, rng)
    params = model.weights + model.biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    step = 0
    report = TrainReport()
    n = x.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = reference_gradients(model, x[batch], targets[batch], rng)
            step += 1
            for i, (p, g) in enumerate(zip(params, grads)):
                adam_m[i] = cfg.beta1 * adam_m[i] + (1 - cfg.beta1) * g
                adam_v[i] = cfg.beta2 * adam_v[i] + (1 - cfg.beta2) * g * g
                m_hat = adam_m[i] / (1 - cfg.beta1**step)
                v_hat = adam_v[i] / (1 - cfg.beta2**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        score(x, labels, report.train_loss, report.train_acc)
        if validation is not None:
            score(prepare(validation[0]), validation[1], report.val_loss, report.val_acc)
    return model, report
