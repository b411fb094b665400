"""From-scratch multilayer perceptron: 5 -> 100 -> 100 -> classes.

Hidden layers are rectified-linear with inverted dropout and an L2 weight
penalty; the output layer is logistic-sigmoid scored with per-output binary
cross-entropy over one-hot targets. Training is mini-batch Adam with
per-epoch shuffling, fully deterministic under a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ingest import open_text
from .types import CLASS_INDEX, GestureLabel, LabeledTrace

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

    def regularized(self) -> list:
        """Weight matrices carrying the L2 penalty (hidden layers only)."""
        return self.weights[:-1]


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
    """Class indices of labels given as GestureLabels or ints.

    Raises ValueError naming the first index outside [0, num_classes).
    """
    indices = [CLASS_INDEX[l] if isinstance(l, GestureLabel) else int(l) for l in labels]
    # min and max compare Python ints, so an index too wide for int64 is
    # reported as out of range rather than overflowing the array below
    if indices and (min(indices) < 0 or max(indices) >= num_classes):
        bad = next(i for i in indices if not 0 <= i < num_classes)
        raise ValueError(f"class index {bad} outside [0, {num_classes})")
    return np.array(indices, dtype=np.intp)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Encode labels (GestureLabel or class indices) as one-hot rows."""
    indices = _as_indices(labels, num_classes)
    out = np.zeros((len(indices), num_classes))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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


def _forward(model: MlpModel, x: np.ndarray, training: bool, rng) -> tuple:
    """Run the layer stack; returns (output, cache) with cache of
    (inputs, pre-activations, dropped activations, dropout scales)."""
    cfg = model.config
    last = len(model.weights) - 1
    rate = cfg.dropout_rate if training else 0.0
    if rate > 0 and rng is None:
        raise ValueError("training forward pass with dropout needs an rng")
    inputs = [x]
    zs = []
    scales = []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i == last:
            a = _sigmoid(z)
            scales.append(None)
        else:
            a = np.maximum(z, 0.0)
            if rate > 0:
                # inverted dropout: scale kept units so inference needs no rescale
                scale = np.where(rng.random(a.shape) >= rate, 1.0 / (1.0 - rate), 0.0)
                a = a * scale
                scales.append(scale)
            else:
                scales.append(None)
        inputs.append(a)
    return a, (inputs, zs, scales)


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


def forward(model: MlpModel, x, training: bool = False, rng=None) -> np.ndarray:
    """Network output for a single input vector or a batch of rows."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    out = _forward(model, rows, True, rng)[0] if training else _infer(model, rows)
    return out[0] if x.ndim == 1 else out


def bce_loss(pred, target, model: MlpModel = None, l2: float = 0.0) -> float:
    """Mean binary cross-entropy over outputs plus the L2 weight penalty.

    Predictions are clamped to [PRED_EPS, 1 - PRED_EPS] before the logs. The
    penalty is l2 * sum of squared weights over the model's regularized
    layers, matching the 2 * l2 * W gradient used in training.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    p = np.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    data = -np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    penalty = 0.0
    if model is not None and l2 > 0:
        penalty = l2 * sum(float(np.sum(w * w)) for w in model.regularized())
    return float(data) + penalty


def _gradients_into(model: MlpModel, x: np.ndarray, target: np.ndarray, rng, training: bool,
                    grads_w: list, grads_b: list) -> np.ndarray:
    """Write the batch gradient of every weight and bias into grads_w and
    grads_b (arrays of the parameters' shapes); returns the network output."""
    cfg = model.config
    out, (inputs, zs, scales) = _forward(model, x, training, rng)
    n_rows, n_out = target.shape
    last = len(model.weights) - 1
    delta = (out - target) / (n_out * n_rows)
    for i in range(last, -1, -1):
        np.matmul(delta.T, inputs[i], out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i < last:
            grads_w[i] += 2.0 * cfg.l2 * model.weights[i]
        if i > 0:
            upstream = delta @ model.weights[i]
            if scales[i - 1] is not None:
                upstream = upstream * scales[i - 1]
            delta = upstream * (zs[i - 1] > 0)
    return out


def loss_and_gradients(model: MlpModel, x: np.ndarray, target: np.ndarray, rng=None,
                       training: bool = True) -> tuple:
    """Batch loss and analytic gradients for every weight and bias."""
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    out = _gradients_into(model, x, target, rng, training, grads_w, grads_b)
    return bce_loss(out, target, model, model.config.l2), grads_w, grads_b


def _accuracy(pred: np.ndarray, indices: np.ndarray) -> float:
    return float(np.mean(np.argmax(pred, axis=1) == indices))


def _prepare(x, cfg: MlpConfig) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected feature matrix with {cfg.input_dim} columns, got {x.shape}"
        )
    return x / 1023.0 if cfg.normalize else x


def train(x, labels, cfg: MlpConfig, validation=None) -> tuple:
    """Train with mini-batch Adam; returns (model, per-epoch TrainReport).

    validation, when given, is an (x_val, labels_val) pair scored after each
    epoch with dropout off. All randomness (init, shuffling, dropout) flows
    from cfg.seed, so identical calls produce identical weights. Parameters,
    gradients and Adam moments each live in one flat buffer updated in
    place, and the per-epoch scoring reuses buffers allocated once per call.
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
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _gradients_into(model, x[batch], targets[batch], rng, True, grads_w, grads_b)
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
        train_pred = _infer(model, x, train_bufs)
        report.train_loss.append(bce_loss(train_pred, targets, model, cfg.l2))
        report.train_acc.append(_accuracy(train_pred, indices))
        if val is not None:
            val_pred = _infer(model, val[0], val_bufs)
            report.val_loss.append(bce_loss(val_pred, val[1], model, cfg.l2))
            report.val_acc.append(_accuracy(val_pred, val[2]))
    return model, report


def predict_labels(model: MlpModel, x) -> list:
    """Argmax class index per row; ties break toward the lowest index."""
    x = _prepare(np.atleast_2d(np.asarray(x, dtype=float)), model.config)
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
    with open_text(source) as handle:
        lines = handle.read().splitlines()
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
    with open_text(source) as handle:
        lines = handle.read().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != 5:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(tokens)}")
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite feature value")
        rows.append(row)
    return np.array(rows) if rows else np.zeros((0, 5))


def load_labels_csv(source) -> list:
    """Label file: one class index per line."""
    with open_text(source) as handle:
        lines = handle.read().splitlines()
    labels = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            labels.append(int(line.strip()))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer label") from None
    return labels


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
