import re

import numpy as np

from lightband.baseline import BaselineTracker
from lightband.mlp import TrainReport, bce_loss, init_model, one_hot
from lightband.types import NUM_CHANNELS, GestureLabel, LabeledTrace

R = GestureLabel.RELAX
E = GestureLabel.EXTEND
F = GestureLabel.FIST
O = GestureLabel.ONE
T = GestureLabel.TRANSITION


def file_lines(text: str) -> list:
    """The lines of a file holding text: each ends at "\r\n", "\r" or "\n".

    The readers' line rule, written independently of them.
    """
    return re.split(r"\r\n|\r|\n", text)


def make_trace(channel_rows, labels, interval=0.02):
    """Build a trace with evenly spaced timestamps from raw channel rows."""
    t_rel = np.arange(len(channel_rows)) * interval
    return LabeledTrace(
        t_rel=t_rel, t_unix=t_rel, channels=channel_rows, labels=tuple(labels),
        sample_interval=interval,
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


# --- reference: the per-tensor training loop, allocating a fresh array for
# every temporary; train(), loss_and_gradients and forward(training=True)
# are held to it bit for bit ---


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        losses.append(bce_loss(pred, one_hot(indices, cfg.output_dim), model, cfg.l2))
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
