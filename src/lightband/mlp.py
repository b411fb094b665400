"""From-scratch multilayer perceptron: 5 -> 100 -> 100 -> classes.

Hidden layers are rectified-linear with inverted dropout and an L2 weight
penalty; the output layer is logistic-sigmoid scored with per-output binary
cross-entropy over one-hot targets. Training is mini-batch Adam with
per-epoch shuffling, fully deterministic under a fixed seed.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ingest import numbered_rows, open_text, text_lines
from .types import CLASS_INDEX, INTENSITY_MAX, NUM_CHANNELS, GestureLabel, LabeledTrace

PRED_EPS = 1e-7

MODEL_MAGIC = "lightband-mlp v1"


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int = 5
    hidden: tuple = (100, 100)
    output_dim: int = 5
    dropout_rate: float = 0.3
    l2: float = 0.01
    epochs: int = 150
    batch_size: int = 20
    seed: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    normalize: bool = False  # divide inputs by 1023 when on; raw scale by default

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        dims = (self.input_dim, *self.hidden, self.output_dim)
        for value in (*dims, self.epochs, self.batch_size, self.seed):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"layer dims, epochs, batch_size and seed must be integers, got {value!r}"
                )
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be a bool, got {self.normalize!r}")
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for name in ("l2", "learning_rate", "beta1", "beta2", "adam_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if self.learning_rate <= 0 or self.adam_eps <= 0:
            raise ValueError("learning_rate and adam_eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")

    @property
    def layer_dims(self) -> tuple:
        """(in, out) pairs for each weight matrix in order."""
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return tuple(zip(dims[:-1], dims[1:]))


@dataclass
class MlpModel:
    """Layer parameters plus the config they were built with.

    weights[i] has shape (out, in); biases[i] has shape (out,). A model is
    treated as frozen once training finishes.
    """

    weights: list
    biases: list
    config: MlpConfig


@dataclass
class TrainReport:
    """Per-epoch metrics; validation lists are empty when no data was given."""

    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)


def init_model(cfg: MlpConfig, rng: np.random.Generator) -> MlpModel:
    """Uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in cfg.layer_dims:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, config=cfg)


def _as_indices(labels, num_classes: int) -> np.ndarray:
    """Class indices of labels given as GestureLabels or ints (not bools).

    Raises ValueError naming the first label that is neither, else the
    first index outside [0, num_classes).
    """
    indices = list(map(_class_index, labels))
    # min and max compare Python ints, so an index too wide for int64 is
    # reported as out of range rather than overflowing the array below
    if indices and (min(indices) < 0 or max(indices) >= num_classes):
        bad = next(i for i in indices if not 0 <= i < num_classes)
        raise ValueError(f"class index {bad} outside [0, {num_classes})")
    return np.array(indices, dtype=np.intp)


def _class_index(label) -> int:
    if isinstance(label, GestureLabel):
        return CLASS_INDEX[label]
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label)
    raise ValueError(f"class index must be an integer, got {label!r}")


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Encode labels (GestureLabel or class indices) as one-hot rows."""
    indices = _as_indices(labels, num_classes)
    out = np.zeros((len(indices), num_classes))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def _sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    # exp of a non-positive argument never overflows; 1 / d where z >= 0,
    # else e / d
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.divide(np.where(z >= 0, 1.0, e), d, out=out)


def _layer_views(flat: np.ndarray, cfg: MlpConfig) -> tuple:
    """Per-layer (weights, biases) views of a flat buffer that holds every
    weight matrix in layer order, then every bias vector."""
    weights = []
    biases = []
    pos = 0
    for fan_in, fan_out in cfg.layer_dims:
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
    for _, fan_out in cfg.layer_dims:
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def _infer(model: MlpModel, a: np.ndarray, bufs=None) -> np.ndarray:
    """Inference output for a batch of rows, keeping no per-layer cache.

    bufs, when given, holds one (rows, out) array per layer to compute in.
    """
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, w.T, out=None if bufs is None else bufs[i])
        z += b
        a = _sigmoid(z) if i == last else np.maximum(z, 0.0, out=z)
    return a


class _Workspace:
    """Buffers for the training step on up to `rows` rows, allocated once.

    Per layer, each (rows, fan_out): the pre-activation z, the activation
    a (the next layer's input), the backward delta and a bool buffer (the
    dropout keep mask, then z > 0); with dropout also the uniforms and the
    dropout scale. Then one buffer per hidden weight matrix for its L2
    gradient term.
    """

    def __init__(self, cfg: MlpConfig, rows: int, rate: float):
        self.rows = rows
        self.rate = rate
        self.l2x2 = 2.0 * cfg.l2
        shapes = [(rows, fan_out) for _, fan_out in cfg.layer_dims]
        self.z = [np.empty(shape) for shape in shapes]
        self.a = [np.empty(shape) for shape in shapes]
        self.delta = [np.empty(shape) for shape in shapes]
        self.keep = [np.empty(shape, dtype=bool) for shape in shapes]
        self.uniform = [np.empty(shape) for shape in shapes] if rate > 0 else []
        self.scale = [np.empty(shape) for shape in shapes] if rate > 0 else []
        self.l2_term = [np.empty((fan_out, fan_in)) for fan_in, fan_out in cfg.layer_dims[:-1]]

    def head(self, m: int) -> "_Workspace":
        """The same buffers cut to their first m rows, for a short batch."""
        head = copy.copy(self)
        head.rows = m
        for name in ("z", "a", "delta", "keep", "uniform", "scale"):
            setattr(head, name, [buf[:m] for buf in getattr(self, name)])
        return head


def _train_step(model: MlpModel, ws: _Workspace, x: np.ndarray, rng, target=None,
                grads_w=None, grads_b=None) -> np.ndarray:
    """One training step on the rows of x, computed in ws: the forward pass
    with inverted dropout at ws.rate, then, when target is given, the batch
    gradient of every weight and bias written into grads_w and grads_b.
    Returns the network output.

    Each value takes the IEEE operations, in the order, of
    relu(x @ w.T + b) * scale and its backprop. The dropout scale is
    (uniform >= rate) * (1 / (1 - rate)): a kept unit is 1.0 * k = k and a
    dropped one 0.0 * k = 0.0, as np.where(keep, k, 0.0) gives.
    """
    last = len(model.weights) - 1
    rate = ws.rate
    if rate > 0 and rng is None:
        raise ValueError("training forward pass with dropout needs an rng")
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, w.T, out=ws.z[i])
        z += b
        if i == last:
            a = _sigmoid(z, out=ws.a[i])
        else:
            a = np.maximum(z, 0.0, out=ws.a[i])
            if rate > 0:
                np.greater_equal(rng.random(out=ws.uniform[i]), rate, out=ws.keep[i])
                a *= np.multiply(ws.keep[i], 1.0 / (1.0 - rate), out=ws.scale[i])
    if target is None:
        return a
    n_rows, n_out = target.shape
    delta = np.subtract(a, target, out=ws.delta[last])
    delta /= n_out * n_rows
    for i in range(last, -1, -1):
        np.matmul(delta.T, ws.a[i - 1] if i else x, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i < last:
            grads_w[i] += np.multiply(model.weights[i], ws.l2x2, out=ws.l2_term[i])
        if i > 0:
            upstream = np.matmul(delta, model.weights[i], out=ws.delta[i - 1])
            if rate > 0:
                upstream *= ws.scale[i - 1]
            upstream *= np.greater(ws.z[i - 1], 0.0, out=ws.keep[i - 1])
            delta = upstream
    return a


def forward(model: MlpModel, x, training: bool = False, rng=None) -> np.ndarray:
    """Network output for a single input vector or a batch of rows."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    if training:
        ws = _Workspace(model.config, rows.shape[0], model.config.dropout_rate)
        out = _train_step(model, ws, rows, rng)
    else:
        out = _infer(model, rows)
    return out[0] if x.ndim == 1 else out


def bce_loss(pred, target, model: MlpModel = None, l2: float = 0.0) -> float:
    """Mean binary cross-entropy over outputs plus the L2 weight penalty.

    Predictions are clamped to [PRED_EPS, 1 - PRED_EPS] before the logs. The
    penalty is l2 * sum of squared hidden-layer weights (the output layer
    has none), matching the 2 * l2 * W gradient used in training.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return _mean_bce(pred, target) + (0.0 if model is None else _l2_penalty(model, l2))


def _mean_bce(pred: np.ndarray, target: np.ndarray) -> float:
    p = np.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def _l2_penalty(model: MlpModel, l2: float) -> float:
    if l2 > 0:
        return l2 * sum(float(np.sum(w * w)) for w in model.weights[:-1])
    return 0.0


def loss_and_gradients(model: MlpModel, x: np.ndarray, target: np.ndarray, rng=None,
                       training: bool = True) -> tuple:
    """Batch loss and analytic gradients for every weight and bias."""
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    rate = model.config.dropout_rate if training else 0.0
    ws = _Workspace(model.config, len(x), rate)
    out = _train_step(model, ws, x, rng, target, grads_w, grads_b)
    return bce_loss(out, target, model, model.config.l2), grads_w, grads_b


def _accuracy(pred: np.ndarray, indices: np.ndarray) -> float:
    return float(np.mean(np.argmax(pred, axis=1) == indices))


def _prepare(x, cfg: MlpConfig) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected feature matrix with {cfg.input_dim} columns, got {x.shape}"
        )
    return x / INTENSITY_MAX if cfg.normalize else x


def train(x, labels, cfg: MlpConfig, validation=None) -> tuple:
    """Train with mini-batch Adam; returns (model, per-epoch TrainReport).

    validation, when given, is an (x_val, labels_val) pair scored after each
    epoch with dropout off. All randomness (init, shuffling, dropout) flows
    from cfg.seed, so identical calls produce identical weights. Parameters,
    gradients and Adam moments each live in one flat buffer updated in
    place; every training step computes in one _Workspace, and the
    per-epoch scoring reuses buffers, all allocated once per call.
    """
    x = _prepare(x, cfg)
    if x.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if not np.isfinite(x).all():
        raise ValueError("non-finite value in training features")
    indices = _as_indices(labels, cfg.output_dim)
    if len(indices) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} rows but {len(indices)} labels")
    targets = one_hot(indices, cfg.output_dim)
    val = None
    if validation is not None:
        x_val = _prepare(validation[0], cfg)
        if not np.isfinite(x_val).all():
            raise ValueError("non-finite value in validation features")
        val_indices = _as_indices(validation[1], cfg.output_dim)
        val = (x_val, one_hot(val_indices, cfg.output_dim), val_indices)
        val_bufs = [np.empty((x_val.shape[0], fan_out)) for _, fan_out in cfg.layer_dims]
    train_bufs = [np.empty((x.shape[0], fan_out)) for _, fan_out in cfg.layer_dims]

    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg, rng)
    params = np.concatenate([p.ravel() for p in model.weights + model.biases])
    model.weights, model.biases = _layer_views(params, cfg)
    grads = np.empty_like(params)
    grads_w, grads_b = _layer_views(grads, cfg)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    t1 = np.empty_like(params)
    t2 = np.empty_like(params)
    step = 0
    report = TrainReport()
    n = x.shape[0]
    ws = _Workspace(cfg, min(cfg.batch_size, n), cfg.dropout_rate)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            batch_ws = ws if len(batch) == ws.rows else ws.head(len(batch))
            _train_step(model, batch_ws, x[batch], rng, targets[batch], grads_w, grads_b)
            step += 1
            # Adam in place, each IEEE operation in the order of
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            adam_m *= cfg.beta1
            np.multiply(grads, 1 - cfg.beta1, out=t1)
            adam_m += t1
            adam_v *= cfg.beta2
            np.multiply(grads, 1 - cfg.beta2, out=t1)
            t1 *= grads
            adam_v += t1
            np.divide(adam_v, 1 - cfg.beta2**step, out=t1)
            np.sqrt(t1, out=t1)
            t1 += cfg.adam_eps
            np.divide(adam_m, 1 - cfg.beta1**step, out=t2)
            t2 *= cfg.learning_rate
            t2 /= t1
            params -= t2
        penalty = _l2_penalty(model, cfg.l2)
        train_pred = _infer(model, x, train_bufs)
        report.train_loss.append(_mean_bce(train_pred, targets) + penalty)
        report.train_acc.append(_accuracy(train_pred, indices))
        if val is not None:
            val_pred = _infer(model, val[0], val_bufs)
            report.val_loss.append(_mean_bce(val_pred, val[1]) + penalty)
            report.val_acc.append(_accuracy(val_pred, val[2]))
    return model, report


def _predict_row(model: MlpModel, a: np.ndarray) -> int:
    """Argmax class index of one prepared row, computed with the same bits
    as the batch path on that row.

    numpy runs a (1, in) @ (out, in).T matmul as a gemv on the C-contiguous
    weights, so w @ a on the 1-D row is the same BLAS call. The sigmoid
    is _sigmoid's: the same np.exp, then the same IEEE + and / on Python
    floats. A NaN output wins, as it does in np.argmax.
    """
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = w @ a
        a += b
        np.maximum(a, 0.0, out=a)
    z = model.weights[-1] @ a
    z += model.biases[-1]
    best, top = 0, -1.0
    for i, (zi, ei) in enumerate(zip(z.tolist(), np.exp(-np.abs(z)).tolist())):
        p = 1.0 / (1.0 + ei) if zi >= 0 else ei / (1.0 + ei)
        if p != p:
            return i
        if p > top:
            best, top = i, p
    return best


def predict_labels(model: MlpModel, x) -> list:
    """Argmax class index per row; ties break toward the lowest index.

    A single row skips the batch machinery (see _predict_row).
    """
    x = _prepare(np.atleast_2d(np.asarray(x, dtype=float)), model.config)
    if x.shape[0] == 1:
        row = x[0]
        if not all(map(math.isfinite, row.tolist())):
            raise ValueError("row 0: non-finite feature value")
        return [_predict_row(model, row)]
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))}: non-finite feature value")
    return np.argmax(_infer(model, x), axis=1).tolist()


def split_dataset(x, labels, boundary: int) -> tuple:
    """First `boundary` rows train, the rest test; order preserved."""
    x = np.asarray(x)
    if not 0 <= boundary <= x.shape[0]:
        raise ValueError(f"boundary {boundary} outside [0, {x.shape[0]}]")
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} rows but {len(labels)} labels")
    return (x[:boundary], labels[:boundary]), (x[boundary:], labels[boundary:])


def trace_to_dataset(trace: LabeledTrace) -> tuple:
    """Per-frame feature matrix (raw intensities) and class-index labels."""
    return trace.channels.astype(float), list(map(CLASS_INDEX.__getitem__, trace.labels))


def save_model(model: MlpModel, sink) -> None:
    """Versioned text serialization; load_model inverts it exactly."""
    lines = [MODEL_MAGIC, json.dumps(asdict(model.config))]
    for w, b in zip(model.weights, model.biases):
        lines.append(f"layer {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    with open_text(sink, "w") as out:
        out.write("\n".join(lines) + "\n")


def load_model(source) -> MlpModel:
    lines = list(text_lines(source))
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError("unsupported model format (bad magic line)")
    if len(lines) < 2:
        raise ValueError("truncated model data: missing config")
    try:
        raw_cfg = json.loads(lines[1])
    except RecursionError:
        raise ValueError("model config nested too deeply") from None
    keys = [f.name for f in fields(MlpConfig)]
    if not isinstance(raw_cfg, dict) or set(raw_cfg) != set(keys):
        raise ValueError(f"model config must be a JSON object with keys {keys}")
    try:
        cfg = MlpConfig(**raw_cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad model config value: {exc}") from None
    pos = 2
    weights = []
    biases = []
    for fan_in, fan_out in cfg.layer_dims:
        header = f"layer {fan_out} {fan_in}"
        if pos >= len(lines) or lines[pos] != header:
            raise ValueError(f"truncated or inconsistent model data at line {pos + 1}")
        pos += 1
        rows = []
        for _ in range(fan_out):
            if pos >= len(lines):
                raise ValueError("truncated model data inside a weight matrix")
            rows.append([float(v) for v in lines[pos].split()])
            if len(rows[-1]) != fan_in:
                raise ValueError(f"bad weight row width at line {pos + 1}")
            pos += 1
        if pos >= len(lines):
            raise ValueError("truncated model data: missing bias row")
        bias = [float(v) for v in lines[pos].split()]
        if len(bias) != fan_out:
            raise ValueError(f"bad bias width at line {pos + 1}")
        pos += 1
        weights.append(np.array(rows))
        biases.append(np.array(bias))
    for arr in weights + biases:
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite parameter in model data")
    return MlpModel(weights=weights, biases=biases, config=cfg)


def load_features_csv(source) -> np.ndarray:
    """Headerless feature CSV: five comma-separated numbers per row."""
    rows = [row for _, row in numbered_rows(source, _parse_feature_row)]
    return np.array(rows) if rows else np.zeros((0, NUM_CHANNELS))


def _parse_feature_row(line: str) -> list:
    tokens = line.split(",")
    if len(tokens) != NUM_CHANNELS:
        raise ValueError(f"expected {NUM_CHANNELS} columns, got {len(tokens)}")
    try:
        row = [float(t) for t in tokens]
    except ValueError:
        raise ValueError("non-numeric feature value") from None
    if not all(map(math.isfinite, row)):
        raise ValueError("non-finite feature value")
    return row


def load_labels_csv(source, num_classes: int = None) -> list:
    """Label file: one class index per line.

    With num_classes given, an index outside [0, num_classes) is an error.
    """

    def parse_label_line(line: str) -> int:
        try:
            label = int(line)
        except ValueError:
            raise ValueError("non-integer label") from None
        if num_classes is not None and not 0 <= label < num_classes:
            raise ValueError(f"class index {label} outside [0, {num_classes})")
        return label

    return [label for _, label in numbered_rows(source, parse_label_line)]


def write_features_csv(x, sink) -> None:
    with open_text(sink, "w") as out:
        out.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.asarray(x)))


def write_labels_csv(labels, sink) -> None:
    with open_text(sink, "w") as out:
        out.write("".join(f"{int(l)}\n" for l in labels))


def write_metrics_csv(report: TrainReport, sink) -> None:
    """Per-epoch metrics CSV for external plotting."""
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    has_val = bool(report.val_loss)
    for epoch in range(len(report.train_loss)):
        row = [
            str(epoch + 1),
            repr(report.train_loss[epoch]),
            repr(report.train_acc[epoch]),
            repr(report.val_loss[epoch]) if has_val else "",
            repr(report.val_acc[epoch]) if has_val else "",
        ]
        lines.append(",".join(row))
    with open_text(sink, "w") as out:
        out.write("\n".join(lines) + "\n")
