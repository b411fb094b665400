"""From-scratch multilayer perceptron: 5 -> 100 -> 100 -> classes.

Hidden layers are rectified-linear with inverted dropout and an L2 weight
penalty; the output layer is logistic-sigmoid scored with per-output binary
cross-entropy over one-hot targets. Training is mini-batch Adam with
per-epoch shuffling, fully deterministic under a fixed seed. The public
entry points run their batch matmuls on one OpenBLAS thread
(_one_blas_thread), so no result depends on the core count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ingest import open_text, text_lines
from .types import CLASS_LABELS, INTENSITY_MAX, ROW_BLOCK, FrameError, LabeledTrace
from .types import _reject_first, check_settings, int_setting, label_codes, tuple_setting

PRED_EPS = 1e-7

MODEL_MAGIC = "lightband-mlp v1"


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when the library or either symbol is missing. Looked up on first
    use, so importing this module loads nothing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; does nothing when
    _openblas() finds no library.

    The first caller to enter saves the thread count and sets 1, and the
    last to leave restores it, so overlapping callers on several Python
    threads (a model is safe for concurrent prediction) never leave the
    process on one thread. The count is process-wide: other BLAS work that
    runs meanwhile runs on one thread too.
    """
    global _blas_users, _blas_saved
    with _blas_lock:
        blas = _openblas()
        if blas is not None and _blas_users == 0:
            _blas_saved = blas[0]()
            blas[1](1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if blas is not None and _blas_users == 0:
                blas[1](_blas_saved)


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
        check_settings(self, ints=("input_dim", "output_dim", "epochs", "batch_size", "seed"),
                       reals=("dropout_rate", "l2", "learning_rate", "beta1", "beta2", "adam_eps"))
        object.__setattr__(self, "hidden", tuple_setting("hidden", self.hidden, int_setting))
        dims = (self.input_dim, *self.hidden, self.output_dim)
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be a bool, got {self.normalize!r}")
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")
        if self.output_dim > len(CLASS_LABELS):
            raise ValueError(
                f"output_dim must be at most {len(CLASS_LABELS)}, got {self.output_dim}"
            )
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        for name in ("learning_rate", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

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


def one_hot(labels, classes: int) -> np.ndarray:
    """Encode labels (label_codes, each below classes) as one-hot rows."""
    indices = label_codes(labels, classes)
    out = np.zeros((len(indices), classes))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def _sigmoid(z: np.ndarray, out=None, e=None, pos=None) -> np.ndarray:
    # exp of a non-positive argument never overflows; 1 / d where z >= 0,
    # else e / d, with d = 1 + e. e (float) and pos (bool) are scratch shaped
    # like z, allocated when not given; z is not read once d is written, so
    # out may be z
    pos = np.greater_equal(z, 0.0, out=pos)
    e = np.absolute(z, out=e)
    np.exp(np.negative(e, out=e), out=e)
    d = np.add(e, 1.0, out=out)
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, d, out=d)


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


def _block_edges(n: int) -> list:
    """Edges n * j // k, j = 0..k, of the k = max(n // ROW_BLOCK, 1) near-equal
    blocks of an _infer pass over n rows: each has at least ROW_BLOCK rows
    unless n is smaller, and the last, ceil(n / k) rows, is the largest."""
    k = max(n // ROW_BLOCK, 1)
    return [n * j // k for j in range(k + 1)]


def _infer_buffers(cfg: MlpConfig, *counts) -> list:
    """One hidden-activation buffer per hidden layer, tall enough for the
    largest block of an _infer pass over any of counts rows."""
    rows = max(n - _block_edges(n)[-2] for n in counts)
    return [np.empty((rows, fan_out)) for _, fan_out in cfg.layer_dims[:-1]]


def _infer(model: MlpModel, x: np.ndarray, bufs=None, argmax=False) -> np.ndarray:
    """Inference output for the rows of x, keeping no per-layer cache; with
    argmax, each row's argmax class index (intp) instead.

    The network runs over the near-equal blocks of _block_edges, so every
    gemm covers at least ROW_BLOCK rows (or all of x), where OpenBLAS gives
    each row the bits of one whole-array gemm. Hidden activations live in
    bufs (from _infer_buffers, allocated here when not given). The
    (rows, output_dim) output is as tall as x; with argmax it is one block
    tall, and each block's argmax is written into the result.
    """
    n = x.shape[0]
    edges = _block_edges(n)
    if bufs is None:
        bufs = _infer_buffers(model.config, n)
    out = np.empty((n - edges[-2] if argmax else n, model.config.output_dim))
    labels = np.empty(n, dtype=np.intp) if argmax else None
    for start, end in zip(edges, edges[1:]):
        a = x[start:end]
        for w, b, buf in zip(model.weights[:-1], model.biases[:-1], bufs):
            z = np.matmul(a, w.T, out=buf[: end - start])
            z += b
            a = np.maximum(z, 0.0, out=z)
        z = np.matmul(a, model.weights[-1].T, out=out[: end - start] if argmax else out[start:end])
        z += model.biases[-1]
        _sigmoid(z, out=z)
        if argmax:
            np.argmax(z, axis=1, out=labels[start:end])
    return labels if argmax else out


class _Workspace:
    """Buffers for the training step on `rows` rows, allocated once.

    Per layer, each (rows, fan_out): the pre-activation z, the activation
    a (the next layer's input), the backward delta and a bool buffer (z > 0
    for a hidden layer; the output layer's, with its delta before the
    backward pass, is the sigmoid's scratch). Then one buffer per hidden
    weight matrix for its L2 gradient term.
    """

    def __init__(self, cfg: MlpConfig, rows: int):
        self.l2x2 = 2.0 * cfg.l2
        shapes = [(rows, fan_out) for _, fan_out in cfg.layer_dims]
        self.z = [np.empty(shape) for shape in shapes]
        self.a = [np.empty(shape) for shape in shapes]
        self.delta = [np.empty(shape) for shape in shapes]
        self.keep = [np.empty(shape, dtype=bool) for shape in shapes]
        self.l2_term = [np.empty((fan_out, fan_in)) for fan_in, fan_out in cfg.layer_dims[:-1]]


def _draw_scales(rng, rate: float, scales: np.ndarray, keep: np.ndarray) -> None:
    """Fill the flat float64 buffer scales with dropout scales, using keep
    (bool, the same size) as scratch: one rng.random over the buffer, then
    (uniform >= rate) * (1 / (1 - rate)). A kept unit is 1.0 * k = k and a
    dropped one 0.0 * k = 0.0, as np.where(keep, k, 0.0) gives."""
    rng.random(out=scales)
    np.greater_equal(scales, rate, out=keep)
    np.multiply(keep, 1.0 / (1.0 - rate), out=scales)


def _scale_views(scales: np.ndarray, heights, hidden) -> list:
    """Per batch of the given heights, in order, the (rows, fan_out) view
    of the flat buffer scales for each hidden layer: batch by batch, layer
    by layer, the order in which one batch at a time would draw them."""
    views, pos = [], 0
    for rows in heights:
        batch = []
        for fan_out in hidden:
            batch.append(scales[pos : pos + rows * fan_out].reshape(rows, fan_out))
            pos += rows * fan_out
        views.append(batch)
    return views


def _batch_scales(cfg: MlpConfig, rows: int, rng) -> list:
    """The dropout scales of one batch of `rows` rows drawn from rng, one
    (rows, fan_out) array per hidden layer; None without dropout."""
    if cfg.dropout_rate == 0:
        return None
    if rng is None:
        raise ValueError("training forward pass with dropout needs an rng")
    scales = np.empty(rows * sum(cfg.hidden))
    _draw_scales(rng, cfg.dropout_rate, scales, np.empty(scales.shape, dtype=bool))
    return _scale_views(scales, [rows], cfg.hidden)[0]


def _train_step(model: MlpModel, ws: _Workspace, x: np.ndarray, target, scales, grads_w,
                grads_b) -> np.ndarray:
    """One training step on the rows of x, computed in ws: the forward pass
    with each hidden activation multiplied by its dropout scales (one
    (rows, fan_out) array per hidden layer, or None for no dropout), then
    the batch gradient of every weight and bias written into grads_w and
    grads_b. Returns the network output.

    Each value takes the IEEE operations, in the order, of
    relu(x @ w.T + b) * scale and its backprop.
    """
    last = len(model.weights) - 1
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(a, w.T, out=ws.z[i])
        z += b
        if i == last:
            a = _sigmoid(z, out=ws.a[i], e=ws.delta[i], pos=ws.keep[i])
        else:
            a = np.maximum(z, 0.0, out=ws.a[i])
            if scales is not None:
                a *= scales[i]
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
            if scales is not None:
                upstream *= scales[i - 1]
            upstream *= np.greater(ws.z[i - 1], 0.0, out=ws.keep[i - 1])
            delta = upstream
    return a


@_one_blas_thread()
def forward(model: MlpModel, x) -> np.ndarray:
    """Inference output (no dropout) for a single input vector or a batch of rows."""
    x = np.asarray(x, dtype=float)
    out = _infer(model, np.atleast_2d(x))
    return out[0] if x.ndim == 1 else out


def _mean_bce(pred: np.ndarray, target: np.ndarray, scratch=None) -> float:
    """-mean(t * log(p) + (1 - t) * log(1 - p)) with p = clip(pred, PRED_EPS,
    1 - PRED_EPS), each element through the same IEEE operations (+ and *
    commute) and the same np.mean reduction, but computed in the first
    len(pred) rows of three scratch buffers (a (3, rows, cols) array at
    least as tall as pred, allocated when not given) instead of five new
    temporaries."""
    if scratch is None:
        scratch = np.empty((3, *pred.shape))
    p, q, t = scratch[:, : len(pred)]
    np.clip(pred, PRED_EPS, 1.0 - PRED_EPS, out=p)
    np.subtract(1.0, p, out=q)
    np.log(p, out=p)
    p *= target
    np.log(q, out=q)
    q *= np.subtract(1.0, target, out=t)
    p += q
    return float(-np.mean(p))


def _l2_penalty(model: MlpModel, l2: float) -> float:
    if l2 > 0:
        return l2 * sum(float(np.sum(w * w)) for w in model.weights[:-1])
    return 0.0


@_one_blas_thread()
def loss_and_gradients(model: MlpModel, x: np.ndarray, target: np.ndarray, rng=None) -> tuple:
    """Batch loss (clamped mean BCE plus L2 penalty) and gradients of every
    parameter: train's step, with dropout at the model's rate drawn from rng."""
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    scales = _batch_scales(model.config, len(x), rng)
    out = _train_step(model, _Workspace(model.config, len(x)), x, target, scales, grads_w, grads_b)
    return _mean_bce(out, target) + _l2_penalty(model, model.config.l2), grads_w, grads_b


def _accuracy(pred: np.ndarray, indices: np.ndarray) -> float:
    return float(np.mean(np.argmax(pred, axis=1) == indices))


def _prepare(x, cfg: MlpConfig) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected feature matrix with {cfg.input_dim} columns, got {x.shape}"
        )
    return x / INTENSITY_MAX if cfg.normalize else x


def _checked_set(x, labels, cfg: MlpConfig, name: str) -> tuple:
    """The prepared features and class indices of the training or
    validation set `name`, refused in the same words for both: an empty
    set, the first row with a non-finite feature (FrameError), a bad label
    (label_codes, each below cfg.output_dim) or a row count that differs
    from the label count."""
    x = _prepare(x, cfg)
    if x.shape[0] == 0:
        raise ValueError(f"{name} set is empty")
    _reject_first(
        ~np.isfinite(x).all(axis=1), lambda row: f"non-finite value in {name} features"
    )
    indices = label_codes(labels, cfg.output_dim)
    if len(indices) != x.shape[0]:
        raise ValueError(f"{name}: {x.shape[0]} rows but {len(indices)} labels")
    return x, indices


@_one_blas_thread()
def train(x, labels, cfg: MlpConfig, validation=None) -> tuple:
    """Train with mini-batch Adam; returns (model, per-epoch TrainReport).

    labels are as label_codes takes them, each below cfg.output_dim.
    validation, when given, is an (x_val, labels_val) pair of the same
    kinds, scored after each epoch with dropout off. All randomness (init,
    shuffling, dropout) flows from cfg.seed, so identical calls produce
    identical weights.

    Each epoch gathers its shuffled rows and targets once, and every step
    takes a contiguous slice of them. Dropout is drawn per group of whole
    batches covering at most ROW_BLOCK rows (one batch when batch_size is
    larger): one rng.random fills the group's scales in the order one batch
    at a time would draw them, batch by batch and hidden layer by hidden
    layer, and PCG64 fills float64 with one draw per value, so the stream,
    and every weight, is that of per-batch draws. A group holds its rows x
    sum(hidden) scales, 8 bytes each, and as many mask bytes: at most
    3.7 MB for the default (100, 100) layers.

    Parameters and gradients each live in one flat buffer, Adam's two
    moments in the rows of one (2, P) buffer, all updated in place; every
    step computes in the _Workspace of its batch height (one for full
    batches, one for a shorter last batch), and the per-epoch scoring of
    both row sets in one set of _infer_buffers and one _mean_bce scratch,
    each allocated once per call. Raises ValueError before the first epoch
    for a bad training or validation set (_checked_set), and at the end of
    the first epoch whose training loss is not finite.
    """
    x, indices = _checked_set(x, labels, cfg, "training")
    n = x.shape[0]
    targets = one_hot(indices, cfg.output_dim)
    val = None
    if validation is not None:
        x_val, val_indices = _checked_set(validation[0], validation[1], cfg, "validation")
        val = (x_val, one_hot(val_indices, cfg.output_dim), val_indices)
    score_rows = (n,) if val is None else (n, val[0].shape[0])
    score_bufs = _infer_buffers(cfg, *score_rows)
    bce_scratch = np.empty((3, max(score_rows), cfg.output_dim))

    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg, rng)
    params = np.concatenate([p.ravel() for p in model.weights + model.biases])
    model.weights, model.biases = _layer_views(params, cfg)
    grads = np.empty_like(params)
    grads_w, grads_b = _layer_views(grads, cfg)
    moments = np.zeros((2, params.size))  # Adam's m, then v
    decay = np.array([[cfg.beta1], [cfg.beta2]])
    gain = np.array([[1 - cfg.beta1], [1 - cfg.beta2]])
    tmp = np.empty_like(moments)
    adam_m, adam_v, t2, t1 = *moments, *tmp
    step = 0
    report = TrainReport()
    bs = cfg.batch_size
    # batch heights: full batches, and the last batch, which may be shorter
    workspaces = {m: _Workspace(cfg, m) for m in {min(bs, n), (n - 1) % bs + 1}}
    # rows per dropout draw: whole batches covering at most ROW_BLOCK rows,
    # or one batch; each batch's scale views for a full group and for a
    # shorter last one
    group = max(ROW_BLOCK // bs, 1) * bs
    rate = cfg.dropout_rate
    units = sum(cfg.hidden)
    scales = np.empty(min(group, n) * units if rate > 0 else 0)
    keep = np.empty(scales.shape, dtype=bool)
    layouts = {}
    for rows in {min(group, n), (n - 1) % group + 1}:
        heights = [min(bs, rows - s) for s in range(0, rows, bs)]
        layouts[rows] = (
            _scale_views(scales, heights, cfg.hidden) if rate > 0 else [None] * len(heights)
        )
    # a diverging run ends in the ValueError below; numpy's overflow and
    # invalid-value warnings on the way would only add lines to stderr
    with np.errstate(all="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            xs, ts = x[order], targets[order]
            for g0 in range(0, n, group):
                rows = min(group, n - g0)
                if rate > 0:
                    _draw_scales(rng, rate, scales[: rows * units], keep[: rows * units])
                for start, batch_scales in zip(range(g0, g0 + rows, bs), layouts[rows]):
                    end = min(start + bs, n)
                    _train_step(model, workspaces[end - start], xs[start:end], ts[start:end],
                                batch_scales, grads_w, grads_b)
                    step += 1
                    # Adam in place, each IEEE operation in the order of
                    # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g,
                    # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
                    moments *= decay
                    np.multiply(grads, gain, out=tmp)
                    t1 *= grads  # tmp is now ((1 - b1) * g, (1 - b2) * g * g)
                    moments += tmp
                    np.divide(adam_v, 1 - cfg.beta2**step, out=t1)
                    np.sqrt(t1, out=t1)
                    t1 += cfg.adam_eps
                    np.divide(adam_m, 1 - cfg.beta1**step, out=t2)
                    t2 *= cfg.learning_rate
                    t2 /= t1
                    params -= t2
            penalty = _l2_penalty(model, cfg.l2)
            train_pred = _infer(model, x, score_bufs)
            loss = _mean_bce(train_pred, targets, bce_scratch) + penalty
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at epoch {epoch}: non-finite loss")
            report.train_loss.append(loss)
            report.train_acc.append(_accuracy(train_pred, indices))
            if val is not None:
                val_pred = _infer(model, val[0], score_bufs)
                report.val_loss.append(_mean_bce(val_pred, val[1], bce_scratch) + penalty)
                report.val_acc.append(_accuracy(val_pred, val[2]))
    return model, report


def _predict_row(model: MlpModel, a: np.ndarray) -> int:
    """Argmax class index of one prepared row, computed with the same bits
    as the batch path on that row.

    numpy runs a (1, in) @ (out, in).T matmul as a gemv on the C-contiguous
    weights, and w.dot(a) on the 1-D row is that same BLAS call without
    matmul's ufunc dispatch. The sigmoid is _sigmoid's: the same abs,
    negative and exp ufuncs in that order, then the same IEEE + and / on
    Python floats. A NaN output wins, as it does in np.argmax.
    """
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = w.dot(a)
        np.add(a, b, out=a)
        np.maximum(a, 0.0, out=a)
    z = model.weights[-1].dot(a)
    np.add(z, model.biases[-1], out=z)
    e = np.absolute(z)
    np.exp(np.negative(e, out=e), out=e)
    best, top = 0, -1.0
    for i, (zi, ei) in enumerate(zip(z.tolist(), e.tolist())):
        p = 1.0 / (1.0 + ei) if zi >= 0 else ei / (1.0 + ei)
        if p != p:
            return i
        if p > top:
            best, top = i, p
    return best


def predict_labels(model: MlpModel, x):
    """Argmax class index per row; ties break toward the lowest index.

    A single row, shaped (input_dim,) or (1, input_dim), is converted once
    and skips the batch machinery (see _predict_row): its result is [label],
    a list of one Python int. Every other shape takes the batch path and
    returns an intp array.
    """
    cfg = model.config
    x = np.asarray(x, dtype=float)
    if x.shape == (1, cfg.input_dim) or x.shape == (cfg.input_dim,):
        row = x.ravel()
        if not all(map(math.isfinite, row.tolist())):
            raise FrameError(0, "non-finite feature value")
        return [_predict_row(model, row / INTENSITY_MAX if cfg.normalize else row)]
    x = _prepare(np.atleast_2d(x), cfg)
    _reject_first(~np.isfinite(x).all(axis=1), lambda row: "non-finite feature value")
    # a finite row near the float64 limit can overflow inside the network;
    # its label is still the argmax, so numpy's warnings would only add noise
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        return _infer(model, x, argmax=True)


def split_dataset(x, labels, boundary: int) -> tuple:
    """First `boundary` rows train, the rest test; order preserved, and
    labels sliced as given."""
    x = np.asarray(x)
    boundary = int_setting("boundary", boundary)
    if not 0 <= boundary <= x.shape[0]:
        raise ValueError(f"boundary {boundary} outside [0, {x.shape[0]}]")
    if len(labels) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} rows but {len(labels)} labels")
    return (x[:boundary], labels[:boundary]), (x[boundary:], labels[boundary:])


def trace_to_dataset(trace: LabeledTrace) -> tuple:
    """Per-frame feature matrix (raw intensities) and the trace's read-only
    int8 class-index labels."""
    return trace.channels.astype(float), trace.labels


def save_model(model: MlpModel, sink) -> None:
    """Versioned text serialization; load_model inverts it exactly.

    A non-finite parameter raises before the sink is opened, since
    load_model would refuse the file.
    """
    if not all(np.isfinite(arr).all() for arr in model.weights + model.biases):
        raise ValueError("non-finite parameter in model; not saving it")
    lines = [MODEL_MAGIC, json.dumps(asdict(model.config))]
    for w, b in zip(model.weights, model.biases):
        lines.append(f"layer {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(repr, row)) for row in w.tolist())
        lines.append(" ".join(map(repr, b.tolist())))
    with open_text(sink, "w") as out:
        out.write("\n".join(lines) + "\n")


def load_model(source) -> MlpModel:
    """Read a model that save_model wrote. Each ValueError names its line,
    "line N: ..."; only blank lines may follow the last bias row."""
    lines = list(text_lines(source))
    lineno = 0  # the line being read, from 1; past the end for a short file

    def take(what: str) -> str:
        nonlocal lineno
        lineno += 1
        if lineno > len(lines):
            raise ValueError(f"truncated model data: missing {what}")
        return lines[lineno - 1]

    def values(width: int, what: str) -> list:
        row = list(map(float, take(what).split()))
        if len(row) != width:
            raise ValueError(f"bad {what} width: expected {width} values, got {len(row)}")
        if not all(map(math.isfinite, row)):
            raise ValueError("non-finite parameter in model data")
        return row

    try:
        if take("magic line") != MODEL_MAGIC:
            raise ValueError("unsupported model format (bad magic line)")
        try:
            raw_cfg = json.loads(take("config"))
        except json.JSONDecodeError as exc:  # str(exc) adds json's own line number
            raise ValueError(f"config is not JSON: {exc.msg} at column {exc.colno}") from None
        except RecursionError:
            raise ValueError("model config nested too deeply") from None
        keys = [f.name for f in fields(MlpConfig)]
        if not isinstance(raw_cfg, dict) or set(raw_cfg) != set(keys):
            raise ValueError(f"model config must be a JSON object with keys {keys}")
        try:
            cfg = MlpConfig(**raw_cfg)
        except ValueError as exc:
            raise ValueError(f"bad model config value: {exc}") from None
        weights, biases = [], []
        for fan_in, fan_out in cfg.layer_dims:
            header = f"layer {fan_out} {fan_in}"
            if take(header) != header:
                raise ValueError(f"inconsistent model data: expected {header!r}")
            weights.append(np.array([values(fan_in, "weight row") for _ in range(fan_out)]))
            biases.append(np.array(values(fan_out, "bias row")))
        while lineno < len(lines):
            if take("").strip():
                raise ValueError("data after the last layer")
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return MlpModel(weights=weights, biases=biases, config=cfg)


def write_labels_csv(labels, sink) -> None:
    """Write labels as class indices, one per line (`nn predict --out`).

    labels are as label_codes takes them; a bad one raises FrameError at
    its row before anything is written.
    """
    text = "\n".join(map(str, label_codes(labels).tolist()))
    with open_text(sink, "w") as out:
        out.write(text + "\n" if text else "")


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
