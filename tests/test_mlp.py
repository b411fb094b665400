import io
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    E,
    R,
    make_trace,
    members,
    oracle_examples,
    reference_bce,
    reference_forward,
    reference_gradients,
    reference_labels,
    reference_sigmoid,
    reference_train,
    run_python,
)
from lightband import mlp
from lightband.mlp import (
    MODEL_MAGIC,
    PRED_EPS,
    MlpConfig,
    MlpModel,
    TrainReport,
    _block_edges,
    _infer,
    _infer_buffers,
    _prepare,
    _sigmoid,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    one_hot,
    predict_labels,
    save_model,
    split_dataset,
    trace_to_dataset,
    train,
    write_metrics_csv,
)

from lightband.types import ROW_BLOCK, GestureLabel, label_codes

TINY = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.0, l2=0.01, seed=123)


def tiny_problem(data_seed=7, cfg=TINY):
    model = init_model(cfg, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(-1, 1, size=(4, 5))
    targets = one_hot(rng.integers(0, cfg.output_dim, size=4), cfg.output_dim)
    return model, x, targets


def numeric_gradient(eval_loss, param, h=1e-5):
    grad = np.zeros_like(param)
    for idx in np.ndindex(param.shape):
        orig = param[idx]
        param[idx] = orig + h
        hi = eval_loss()
        param[idx] = orig - h
        lo = eval_loss()
        param[idx] = orig
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def max_relative_error(model, grads_w, grads_b, eval_loss):
    worst = 0.0
    for analytic, param in zip(grads_w + grads_b, model.weights + model.biases):
        numeric = numeric_gradient(eval_loss, param)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-10)
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst


def test_one_hot():
    m = one_hot(np.array([2]), 5)
    assert m.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]]
    assert one_hot(np.array([], dtype=np.int8), 5).shape == (0, 5)
    assert one_hot(np.array([R.value, E.value], dtype=np.int8), 5).tolist() == [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
    ]
    with pytest.raises(ValueError, match="^row 1: class index 5 outside"):
        one_hot(np.array([0, 5]), 5)
    # one gesture class more would be a column no network output stands for
    with pytest.raises(ValueError, match=r"^classes must be in \[1, 5\], got 6$"):
        one_hot(np.array([0, 5]), 6)


def zero_model(cfg=TINY):
    model = init_model(cfg, np.random.default_rng(0))
    for w in model.weights:
        w[:] = 0.0
    return model


def test_forward_zero_model_outputs_half():
    model = zero_model()
    out = forward(model, np.zeros(5))
    assert np.allclose(out, 0.5)
    out = forward(model, np.full((3, 5), 100.0))
    assert np.allclose(out, 0.5)


def test_forward_inference_deterministic():
    model, x, _ = tiny_problem()
    assert np.array_equal(forward(model, x), forward(model, x))


def train_step_output(model, x, rng):
    """The output of train's step on the rows of x: the forward pass with
    dropout at the model's rate, drawn from rng."""
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    target = np.zeros((len(x), model.config.output_dim))  # the output does not read it
    ws = mlp._Workspace(model.config, len(x))
    with mlp._one_blas_thread():
        return mlp._train_step(model, ws, x, target, mlp._batch_scales(model.config, len(x), rng),
                               grads_w, grads_b)


def test_forward_dropout_seeded():
    cfg = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.3, seed=123)
    model, x, _ = tiny_problem(cfg=cfg)
    a = train_step_output(model, x, np.random.default_rng(90))
    b = train_step_output(model, x, np.random.default_rng(90))
    assert np.array_equal(a, b)
    c = train_step_output(model, x, np.random.default_rng(91))
    assert anything_differs(a, c)


def anything_differs(a, b):
    return not np.allclose(a, b)


def test_bce_loss_values():
    # zero weights put every output at sigmoid(0) = 0.5: a loss of log 2
    cfg = replace(TINY, l2=0.0)
    model, x, targets = tiny_problem(cfg=cfg)
    for w, b in zip(model.weights, model.biases):
        w[:] = 0.0
        b[:] = 0.0
    assert loss_and_gradients(model, x, targets)[0] == pytest.approx(math.log(2))
    # +-50 on the output bias: sigmoid gives exactly 1.0 and 2e-22, which
    # the clamp keeps inside the logs
    model.biases[-1][:] = [-50.0, 50.0]
    loss = loss_and_gradients(model, x, one_hot(np.ones(len(x), dtype=int), 2))[0]
    assert 0 < loss < 1e-6


def whole_expression_bce(pred, target) -> float:
    """_mean_bce as one numpy expression, a new array per step."""
    p = np.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


# predictions at and around the clip edges, and the values they clip
_BCE_EDGES = [
    0.0, 1.0, PRED_EPS, 1.0 - PRED_EPS, 0.5, 5e-324,
    np.nextafter(PRED_EPS, 0.0), np.nextafter(PRED_EPS, 1.0),
    np.nextafter(1.0 - PRED_EPS, 0.0), np.nextafter(1.0 - PRED_EPS, 1.0),
    np.nextafter(1.0, 0.0),
]


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(100))
@given(st.integers(1, 12), st.integers(1, 5), st.data())
def test_mean_bce_equals_the_whole_expression_bit_for_bit(rows, cols, data):
    values = st.one_of(st.sampled_from(_BCE_EDGES), st.floats(0.0, 1.0))
    pred = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    pred = pred.reshape(rows, cols)
    indices = data.draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
    target = one_hot(np.array(indices), cols)
    if data.draw(st.booleans()):  # soft targets exercise both log terms on every element
        target = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                             max_size=rows * cols))).reshape(rows, cols)
    expected = whole_expression_bce(pred, target).hex()
    assert mlp._mean_bce(pred, target).hex() == expected
    # train's scratch: taller than pred, holding leftovers of an earlier call
    scratch = np.full((3, rows + data.draw(st.integers(0, 50)), cols), np.nan)
    assert mlp._mean_bce(pred, target, scratch).hex() == expected
    assert mlp._mean_bce(pred, target, scratch).hex() == expected


def test_mean_bce_at_the_clip_edges():
    pred = np.array([_BCE_EDGES] * 2)
    target = np.zeros_like(pred)
    target[0] = 1.0
    assert mlp._mean_bce(pred, target).hex() == whole_expression_bce(pred, target).hex()
    assert math.isfinite(mlp._mean_bce(pred, target))


def test_bce_loss_includes_weight_penalty():
    model, x, targets = tiny_problem()
    with_penalty = loss_and_gradients(model, x, targets)[0]
    bare_model = replace(model, config=replace(TINY, l2=0.0))
    bare = loss_and_gradients(bare_model, x, targets)[0]
    expected = TINY.l2 * sum(float(np.sum(w * w)) for w in model.weights[:-1])
    assert with_penalty - bare == pytest.approx(expected)
    assert with_penalty == reference_bce(forward(model, x), targets, model, TINY.l2)


def test_gradients_match_finite_differences():
    model, x, targets = tiny_problem()
    loss, grads_w, grads_b = loss_and_gradients(model, x, targets)

    def eval_loss():
        return reference_bce(forward(model, x), targets, model, TINY.l2)

    assert loss == pytest.approx(eval_loss())
    assert max_relative_error(model, grads_w, grads_b, eval_loss) < 1e-4


def test_gradients_match_with_dropout_masks_fixed():
    cfg = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.3, l2=0.01, seed=123)
    model, x, targets = tiny_problem(cfg=cfg)
    loss, grads_w, grads_b = loss_and_gradients(model, x, targets, rng=np.random.default_rng(90))

    def eval_loss():
        out = train_step_output(model, x, np.random.default_rng(90))
        return reference_bce(out, targets, model, cfg.l2)

    assert loss == pytest.approx(eval_loss())
    assert max_relative_error(model, grads_w, grads_b, eval_loss) < 1e-4
    with pytest.raises(ValueError, match="^training forward pass with dropout needs an rng$"):
        loss_and_gradients(model, x, targets)


def separable_toy():
    rng = np.random.default_rng(17)
    x0 = np.column_stack([rng.uniform(0.0, 0.4, 10), rng.uniform(-1, 1, (10, 4)).reshape(10, 4)[:, 0],
                          rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)])
    x1 = x0.copy()
    x1[:, 0] += 1.4  # margin of at least 1 on the first feature
    x = np.vstack([x0, x1])
    labels = np.repeat([0, 1], 10)
    return x, labels


def test_train_separable_toy_reaches_perfect_accuracy():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, dropout_rate=0.0, l2=0.0, epochs=150, batch_size=20, seed=1)
    model, report = train(x, labels, cfg)
    assert report.train_acc[-1] == 1.0
    assert report.train_loss[-1] < report.train_loss[0]
    assert np.array_equal(predict_labels(model, x), labels)


def test_train_zero_epochs_keeps_init():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, epochs=0, seed=9)
    model, report = train(x, labels, cfg)
    fresh = init_model(cfg, np.random.default_rng(9))
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, fresh.weights))
    assert report.train_loss == [] and report.val_loss == []


def test_train_deterministic_under_seed():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, epochs=5, seed=4)
    m1, r1 = train(x, labels, cfg, validation=(x, labels))
    m2, r2 = train(x, labels, cfg, validation=(x, labels))
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))
    assert r1.train_loss == r2.train_loss
    assert r1.val_acc == r2.val_acc
    # labels given as GestureLabel members train the same model
    m3, r3 = train(x, members(labels), cfg, validation=(x, members(labels)))
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights + m1.biases, m3.weights + m3.biases))
    assert r3 == r1


def test_train_input_validation():
    with pytest.raises(ValueError, match="^training set is empty$"):
        train(np.zeros((0, 5)), np.array([], dtype=int), MlpConfig(output_dim=2))
    with pytest.raises(ValueError, match="columns"):
        train(np.zeros((3, 4)), np.array([0, 1, 0]), MlpConfig(output_dim=2))
    with pytest.raises(ValueError, match="^training: 3 rows but 2 labels$"):
        train(np.zeros((3, 5)), np.array([0, 1]), MlpConfig(output_dim=2))


@pytest.mark.parametrize(
    "validation, message",
    [
        ((np.zeros((3, 5)), np.array([0, 1])), "validation: 3 rows but 2 labels"),
        ((np.zeros((2, 5)), np.array([0, 1, 1])), "validation: 2 rows but 3 labels"),
        ((np.zeros((0, 5)), np.array([], dtype=int)), "validation set is empty"),
        ((np.zeros((0, 5)), np.array([1])), "validation set is empty"),
        ((np.zeros((2, 5)), np.array([0, 2])), "row 1: class index 2 outside [0, 2)"),
        ((np.zeros((2, 5)), [0, 1]), "row 0: label must be a GestureLabel, got 0"),
    ],
)
def test_train_refuses_a_bad_validation_pair_before_the_first_epoch(validation, message,
                                                                     monkeypatch):
    # the mismatch used to train a whole epoch, then fail in numpy's
    # broadcasting; an empty set scored nan losses with a RuntimeWarning
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(mlp, "_train_step", no_step)
    x, labels = separable_toy()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train(x, labels, MlpConfig(output_dim=2, epochs=1), validation=validation)


def test_predict_tie_breaks_to_lowest_index():
    model = zero_model()  # every output is 0.5
    assert predict_labels(model, np.zeros((3, 5))).tolist() == [0, 0, 0]


def test_predict_matches_argmax_of_forward():
    model, x, _ = tiny_problem()
    out = forward(model, x)
    labels = predict_labels(model, x)
    assert labels.dtype == np.intp
    assert labels.tolist() == np.argmax(out, axis=1).tolist()


def test_split_dataset():
    x = np.arange(2000 * 5, dtype=float).reshape(2000, 5)[:1000]
    labels = np.arange(1000)
    (xa, la), (xb, lb) = split_dataset(x, labels, 880)
    assert xa.shape == (880, 5) and xb.shape == (120, 5)
    assert la.tolist() == list(range(880)) and lb.tolist() == list(range(880, 1000))
    assert np.shares_memory(la, labels) and np.shares_memory(lb, labels)  # slices, not copies
    (xa, la), (xb, lb) = split_dataset(x, labels, 0)
    assert xa.shape[0] == 0 and xb.shape[0] == 1000
    (xa, la), (xb, lb) = split_dataset(x, labels, 1000)
    assert xb.shape[0] == 0
    with pytest.raises(ValueError, match="boundary"):
        split_dataset(x, labels, 1001)
    with pytest.raises(ValueError, match="^1000 rows but 999 labels$"):
        split_dataset(x, labels[:-1], 880)


def test_save_load_round_trip():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, epochs=3, seed=2)
    model, _ = train(x, labels, cfg)
    sink = io.StringIO()
    save_model(model, sink)
    back = load_model(io.StringIO(sink.getvalue()))
    assert back.config == model.config
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, model.weights))
    assert all(np.array_equal(a, b) for a, b in zip(back.biases, model.biases))


def test_save_model_writes_each_value_as_its_repr():
    cfg = MlpConfig(input_dim=3, hidden=(2,), output_dim=2)
    model = init_model(cfg, np.random.default_rng(0))
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    model.weights[0][0] = extremes[:3]
    model.weights[1][1] = extremes[2:]
    model.biases[0][:] = extremes[:2]
    model.biases[1][:] = [-5e-324, 0.0]
    lines = [MODEL_MAGIC, json.dumps(asdict(cfg))]
    for w, b in zip(model.weights, model.biases):
        lines.append(f"layer {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(repr(float(v)) for v in row) for row in w)
        lines.append(" ".join(repr(float(v)) for v in b))
    text = _model_text(model)
    assert text == "\n".join(lines) + "\n"
    assert "-0.0 5e-324 1.7976931348623157e+308" in text
    back = load_model(io.StringIO(text))
    for a, b in zip(back.weights + back.biases, model.weights + model.biases):
        assert a.tobytes() == b.tobytes()  # -0.0 keeps its sign


def test_load_model_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        load_model(io.StringIO("something else\n"))


def test_load_model_truncated():
    model, _, _ = tiny_problem()
    sink = io.StringIO()
    save_model(model, sink)
    lines = sink.getvalue().splitlines()
    truncated = "\n".join(lines[: len(lines) // 2]) + "\n"
    with pytest.raises(ValueError, match="truncated|weight row"):
        load_model(io.StringIO(truncated))


@pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_load_model_ends_lines_only_at_line_ends(char):
    """str.splitlines ends a line at these characters too; the model file's
    positional parse must not see an extra line after a weight row."""
    model, _, _ = tiny_problem()
    sink = io.StringIO()
    save_model(model, sink)
    lines = sink.getvalue().split("\n")
    assert lines[2].startswith("layer ")
    lines[3] += char  # the first weight row; float() ignores the whitespace
    back = load_model(io.StringIO("\r\n".join(lines), newline=""))
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, model.weights))


def test_load_model_names_the_line_of_a_non_numeric_weight():
    text = _model_text(tiny_problem()[0])
    lines = text.splitlines()
    lines[4] = "abc " + lines[4].split(" ", 1)[1]  # the second weight row of layer 1
    with pytest.raises(ValueError, match="^line 5: could not convert string to float: 'abc'$"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_load_model_refuses_data_after_the_last_layer():
    text = _model_text(tiny_problem()[0])
    n_lines = len(text.splitlines())
    with pytest.raises(ValueError, match=f"^line {n_lines + 1}: data after the last layer$"):
        load_model(io.StringIO(text + "garbage here\n"))
    with pytest.raises(ValueError, match=f"^line {n_lines + 3}: data after the last layer$"):
        load_model(io.StringIO(text + "\n \n1.0\n"))
    # blank lines carry no data
    assert _model_text(load_model(io.StringIO(text + "\n\t\n"))) == text


@pytest.mark.parametrize("config, message", [
    ("{bad", "Expecting property name enclosed in double quotes at column 2"),
    ("[1,2", "Expecting ',' delimiter at column 5"),
    ('{"a": 1} x', "Extra data at column 10"),
])
def test_load_model_names_one_line_for_a_config_that_is_not_json(config, message):
    lines = _model_text(tiny_problem()[0]).splitlines()
    lines[1] = config
    with pytest.raises(ValueError, match=f"^line 2: config is not JSON: {re.escape(message)}$"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_load_model_non_finite():
    model, _, _ = tiny_problem()
    sink = io.StringIO()
    save_model(model, sink)
    text = sink.getvalue()
    first_value = text.splitlines()[3].split()[0]
    with pytest.raises(ValueError, match="non-finite"):
        load_model(io.StringIO(text.replace(first_value, "inf", 1)))


@pytest.mark.parametrize("where", ["weight", "bias"])
def test_save_model_refuses_a_non_finite_parameter_and_keeps_the_old_file(tmp_path, where):
    model, _, _ = tiny_problem()
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    before = path.read_bytes()
    (model.weights if where == "weight" else model.biases)[-1][0] = np.inf
    with pytest.raises(ValueError, match="non-finite parameter"):
        save_model(model, str(path))
    assert path.read_bytes() == before
    sink = io.StringIO()
    with pytest.raises(ValueError, match="non-finite parameter"):
        save_model(model, sink)
    assert sink.getvalue() == ""


def test_inverted_dropout_preserves_expectation():
    cfg = MlpConfig(input_dim=1, hidden=(1,), output_dim=1, dropout_rate=0.3, seed=0)
    model = MlpModel(
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1)],
        config=cfg,
    )
    x = np.ones((100_000, 1))
    out = train_step_output(model, x, np.random.default_rng(123))
    # the hidden unit is 1 / (1 - rate) where kept and 0 where dropped, and
    # the output is its sigmoid, so a kept unit reads above 0.5
    kept = float(np.mean(out > 0.5))
    assert abs(kept / (1.0 - cfg.dropout_rate) - 1.0) < 0.01


def test_trace_to_dataset():
    trace = make_trace([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]], [R, E])
    x, y = trace_to_dataset(trace)
    assert x.tolist() == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    assert y is trace.labels and y.tolist() == [0, 1]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.sampled_from(list(GestureLabel)), max_size=40))
def test_trace_to_dataset_labels_are_label_values(labels):
    _, y = trace_to_dataset(make_trace([[0] * 5] * len(labels), labels))
    assert y.dtype == np.int8 and y.tolist() == [label.value for label in labels]


def reference_label_codes(labels, classes: int) -> list:
    """The per-row check label_codes stands for: the class index of each row
    of a 1-D numpy integer array, or of each GestureLabel member of a list,
    compared as Python ints."""
    if isinstance(labels, np.ndarray):
        if labels.ndim != 1:
            raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
        if labels.dtype.kind not in "iu" and len(labels):
            raise ValueError(f"row 0: labels must be class indices, got dtype {labels.dtype}")
        indices = labels.tolist()
    else:
        for row, label in enumerate(labels):
            if type(label) is not GestureLabel:
                raise ValueError(f"row {row}: label must be a GestureLabel, got {label!r}")
        indices = [label.value for label in labels]
    for row, index in enumerate(indices):
        if not 0 <= index < classes:
            raise ValueError(f"row {row}: class index {index} outside [0, {classes})")
    return indices


_INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                   np.uint64]


@st.composite
def label_inputs(draw):
    """A 1-D array of any integer dtype, its values across the dtype's range
    (uint64 above the int64 maximum, negatives) or near [0, 7); a list of
    GestureLabel members; else a bool, float, object or 2-D array, or a
    list of ints."""
    kinds = ["integer"] * 4 + ["members"] * 2 + ["bool", "float", "object", "2-D", "list"]
    kind = draw(st.sampled_from(kinds))
    values = st.lists(st.integers(-2, 7), max_size=30)
    if kind == "integer":
        info = np.iinfo(draw(st.sampled_from(_INTEGER_DTYPES)))
        wide = st.integers(int(info.min), int(info.max))
        near = st.integers(max(int(info.min), -2), 7)
        return np.array(draw(st.lists(st.one_of(near, wide), max_size=30)), dtype=info.dtype)
    if kind == "members":
        return draw(st.lists(st.sampled_from(list(GestureLabel)), max_size=30))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), max_size=30)), dtype=bool)
    if kind == "float":
        return np.array(draw(values), dtype=float)  # 2.0 is not class 2
    if kind == "object":
        return np.array(draw(values) + [None], dtype=object)[:-1]
    if kind == "2-D":
        return np.array(draw(values)).reshape(-1, 1)
    return draw(values)


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(400))
@given(label_inputs(), st.integers(1, 5))
def test_class_indices_and_one_hot_match_per_row_reference(labels, classes):
    try:
        indices = reference_label_codes(labels, classes)
    except ValueError as exc:
        for check in (label_codes, one_hot):
            with pytest.raises(ValueError) as caught:
                check(labels, classes)
            assert str(caught.value) == str(exc)
        return
    got = label_codes(labels, classes)
    assert got.dtype == np.int8 and got.tolist() == indices and not got.flags.writeable
    expected = np.zeros((len(indices), classes))
    for row, index in enumerate(indices):
        expected[row, index] = 1.0
    assert one_hot(labels, classes).tobytes() == expected.tobytes()


def test_metrics_csv():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, epochs=2, seed=3)
    _, report = train(x, labels, cfg, validation=(x, labels))
    sink = io.StringIO()
    write_metrics_csv(report, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_normalize_flag_round_trips_through_predict():
    x, labels = separable_toy()
    x = (x + 2) * 200  # intensity-scale features
    cfg = MlpConfig(output_dim=2, epochs=40, dropout_rate=0.0, l2=0.0, seed=6, normalize=True)
    model, report = train(x, labels, cfg)
    assert report.train_acc[-1] == 1.0
    assert np.array_equal(predict_labels(model, x), labels)


def test_train_rejects_non_finite_rows():
    x, labels = separable_toy()
    bad = x.copy()
    bad[3, 2] = np.nan
    cfg = MlpConfig(output_dim=2, epochs=1, seed=1)
    with pytest.raises(ValueError, match="non-finite value in training"):
        train(bad, labels, cfg)
    bad[3, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite value in validation"):
        train(x, labels, cfg, validation=(bad, labels))


def test_train_stops_at_the_first_non_finite_epoch_loss():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1023, size=(40, 5))
    labels = rng.integers(0, 5, size=40)
    # Adam steps of ~7e152 per weight overflow the L2 penalty a few epochs in
    cfg = MlpConfig(hidden=(4,), epochs=8, learning_rate=7e152, dropout_rate=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay off
        message = r"^training diverged at epoch \d+: non-finite loss$"
        with pytest.raises(ValueError, match=message) as info:
            train(x, labels, cfg)
    epoch = int(re.search(r"epoch (\d+)", str(info.value))[1])
    assert epoch > 1
    _, report = train(x, labels, replace(cfg, epochs=epoch - 1))
    assert len(report.train_loss) == epoch - 1
    assert all(map(math.isfinite, report.train_loss))


def intensity_problem(n, classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.uniform(100, 900, size=(classes, 5))
    x = np.rint(centers[labels] + rng.normal(0, 40, size=(n, 5)))
    return x, labels


@pytest.mark.parametrize(
    "hidden, dropout, l2, batch, with_val, normalize, n",
    [
        ((3,), 0.0, 0.0, 7, False, False, 30),
        ((8, 6), 0.3, 0.01, 7, True, True, 30),
        ((4, 5, 3), 0.5, 0.0, 30, True, False, 30),
        ((100, 100), 0.3, 0.01, 20, True, False, 30),
        ((100, 100), 0.0, 0.01, 1, False, True, 30),
        ((12, 9), 0.2, 0.05, 11, True, True, 30),
        ((5, 4), 0.3, 0.01, 50, True, False, 30),  # one batch, shorter than batch_size
        ((7,), 0.4, 0.01, 8, True, False, 30),  # one hidden layer with dropout
        ((6, 5), 0.3, 0.0, 9, False, True, 30),  # dropout without the L2 term
        # two dropout groups (292 batches of 7, then 8 and a 3-row batch)
        ((3,), 0.3, 0.01, 7, True, False, 2_103),
        # batches taller than ROW_BLOCK: one batch per draw, then a 53-row one
        ((8, 6), 0.2, 0.0, ROW_BLOCK + 2, False, True, 2_103),
    ],
)
def test_train_equals_per_tensor_reference(hidden, dropout, l2, batch, with_val, normalize, n):
    x, labels = intensity_problem(n + 15, 4, seed=len(hidden) + batch)
    validation = (x[n:], labels[n:]) if with_val else None
    for epochs in (0, 4):
        cfg = MlpConfig(hidden=hidden, output_dim=4, dropout_rate=dropout, l2=l2, epochs=epochs,
                        batch_size=batch, seed=batch, normalize=normalize)
        model, report = train(x[:n], labels[:n], cfg, validation=validation)
        ref_model, ref_report = reference_train(x[:n], labels[:n], cfg, validation=validation)
        for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert got.tobytes() == want.tobytes()
        assert report == ref_report
        assert len(report.val_loss) == (epochs if with_val else 0)

    # on the trained model, loss_and_gradients and the test helper run train's step
    rows = _prepare(x[:n], cfg)
    targets = one_hot(labels[:n], 4)
    loss, grads_w, grads_b = loss_and_gradients(model, rows, targets, np.random.default_rng(99))
    want = reference_gradients(model, rows, targets, np.random.default_rng(99))
    assert [g.tobytes() for g in grads_w + grads_b] == [g.tobytes() for g in want]
    want_out = reference_forward(model, rows, True, np.random.default_rng(99))[0]
    got_out = train_step_output(model, rows, np.random.default_rng(99))
    assert got_out.tobytes() == want_out.tobytes()
    assert loss == reference_bce(want_out, targets, model, l2)


@st.composite
def small_trainings(draw):
    """A training set and config: a few rows, or rows straddling ROW_BLOCK
    with batches of up to 40 rows or taller than ROW_BLOCK."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(ROW_BLOCK - 40, ROW_BLOCK + 90)))
    if n < ROW_BLOCK - 40:
        batch = draw(st.integers(1, 70))
    else:
        batch = draw(st.one_of(st.integers(5, 40), st.integers(ROW_BLOCK - 3, ROW_BLOCK + 95)))
    cfg = MlpConfig(
        hidden=tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))),
        output_dim=3,
        dropout_rate=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9])),
        l2=draw(st.sampled_from([0.0, 0.01])),
        epochs=draw(st.integers(1, 2)),
        batch_size=batch,
        seed=draw(st.integers(0, 2**32)),
        normalize=draw(st.booleans()),
    )
    x, labels = intensity_problem(n + 7, 3, seed=draw(st.integers(0, 99)))
    validation = (x[n:], labels[n:]) if draw(st.booleans()) else None
    return x[:n], labels[:n], cfg, validation


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(15))
@given(small_trainings())
def test_train_equals_per_tensor_reference_on_random_configs(training):
    x, labels, cfg, validation = training
    model, report = train(x, labels, cfg, validation=validation)
    ref_model, ref_report = reference_train(x, labels, cfg, validation=validation)
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert got.tobytes() == want.tobytes()
    assert report == ref_report


def test_sigmoid_bitwise_equals_masked_reference():
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 36.0, -36.0])
    z = np.concatenate([special, np.random.default_rng(5).normal(0, 30, 2000)])
    for arr in (z, z.reshape(-1, 5)):
        assert _sigmoid(arr).tobytes() == reference_sigmoid(arr).tobytes()


def test_inference_forward_bitwise_equals_training_path():
    cfg = MlpConfig(output_dim=5, seed=8)
    model = init_model(cfg, np.random.default_rng(8))
    x, _ = intensity_problem(64, 5, seed=8)
    one_row = reference_forward(model, x[:1], False, None)[0][0]
    assert forward(model, x[0]).tobytes() == one_row.tobytes()
    assert forward(model, x).tobytes() == reference_forward(model, x, False, None)[0].tobytes()


_BLOCK_MODELS = {
    normalize: init_model(
        MlpConfig(output_dim=5, normalize=normalize, seed=12), np.random.default_rng(12)
    )
    for normalize in (False, True)
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "n",
    [1, 2, 255, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK,
     2 * ROW_BLOCK + 7, 3 * ROW_BLOCK - 1, 3 * ROW_BLOCK, 22_200, 40_000],
)
def test_blocked_inference_equals_whole_array_reference(n, normalize):
    # _infer runs near-equal blocks of at least ROW_BLOCK rows (all n when
    # n is smaller); every output byte and label is the whole-array pass's
    model = _BLOCK_MODELS[normalize]
    x = np.rint(np.random.default_rng(n).uniform(0, 1023, size=(n, 5)))
    want = reference_forward(model, _prepare(x, model.config), False, None)[0]
    assert forward(model, _prepare(x, model.config)).tobytes() == want.tobytes()
    labels = np.asarray(predict_labels(model, x)).tolist()  # n = 1 takes the one-row path
    assert labels == reference_labels(model, x) == np.argmax(want, axis=1).tolist()
    assert n < 255 or len(set(labels)) > 1


def test_predict_labels_holds_one_row_block_of_activations():
    # the whole-array pass held two 40,000 x 100 float64 arrays (64 MB)
    model = _BLOCK_MODELS[False]
    x = np.rint(np.random.default_rng(4).uniform(0, 1023, size=(40_000, 5)))
    tracemalloc.start()
    try:
        labels = predict_labels(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(labels) == 40_000
    assert peak < 6 * 2**20


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(200))
@given(st.integers(0, 5 * ROW_BLOCK), st.integers(0, 5 * ROW_BLOCK))
def test_block_edges_cover_the_rows_in_blocks_the_buffers_hold(n, m):
    cfg = MlpConfig(hidden=(3, 2), output_dim=2)
    bufs = _infer_buffers(cfg, n, m)
    assert [buf.shape for buf in bufs] == [(len(bufs[0]), 3), (len(bufs[0]), 2)]
    for rows in (n, m):
        edges = _block_edges(rows)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == rows and (sizes >= 0).all()
        if rows < ROW_BLOCK:
            assert edges == [0, rows]
        else:
            assert sizes.min() >= ROW_BLOCK
        assert sizes.max() == -(-rows // len(sizes))
        assert len(bufs[0]) >= sizes.max()


@pytest.mark.parametrize(
    "n, m", [(2 * ROW_BLOCK - 1, 2 * ROW_BLOCK), (2 * ROW_BLOCK, 2 * ROW_BLOCK - 1)]
)
def test_train_scores_row_sets_of_different_partitions_as_the_reference(n, m):
    # 4,095 rows are one block and 4,096 rows two of 2,048: the shared
    # scoring buffers must hold the taller block of either set
    x, labels = intensity_problem(n + m, 3, seed=9)
    cfg = MlpConfig(hidden=(6, 4), output_dim=3, epochs=2, batch_size=ROW_BLOCK, seed=9)
    validation = (x[n:], labels[n:])
    model, report = train(x[:n], labels[:n], cfg, validation=validation)
    ref_model, ref_report = reference_train(x[:n], labels[:n], cfg, validation=validation)
    assert report == ref_report
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert got.tobytes() == want.tobytes()


def test_train_holds_one_group_of_dropout_scales():
    # dropout adds its float64 scales and bool mask to the traced peak: one
    # group of at most ROW_BLOCK rows, where a draw per epoch would hold
    # all 12,000 rows of them (21.6 MB)
    x, labels = intensity_problem(12_000, 5, seed=3)
    peaks = []
    for rate in (0.0, 0.3):
        cfg = MlpConfig(output_dim=5, dropout_rate=rate, epochs=1, batch_size=100, seed=3)
        tracemalloc.start()
        try:
            train(x, labels, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    group = ROW_BLOCK * sum(cfg.hidden) * (8 + 1)
    assert 0 < peaks[1] - peaks[0] < group + 2**16


def test_train_scores_long_validation_sets_as_the_whole_array_reference():
    x, labels = intensity_problem(2 * ROW_BLOCK + 37, 3, seed=6)
    cfg = MlpConfig(hidden=(16, 8), output_dim=3, epochs=2, seed=6)
    validation = (x[30:], labels[30:])
    model, report = train(x[:30], labels[:30], cfg, validation=validation)
    ref_model, ref_report = reference_train(x[:30], labels[:30], cfg, validation=validation)
    assert report == ref_report
    for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
        assert got.tobytes() == want.tobytes()


def test_trainings_with_different_shapes_share_no_workspace():
    x, labels = intensity_problem(40, 3, seed=2)
    first = MlpConfig(hidden=(8,), output_dim=3, batch_size=7, epochs=3, seed=1)
    other = MlpConfig(hidden=(5, 4), output_dim=3, batch_size=13, epochs=3, seed=1)
    alone = _model_text(train(x, labels, first)[0])
    train(x, labels, other)
    assert _model_text(train(x, labels, first)[0]) == alone
    # no array outlives a call at module level
    assert not [v for v in vars(mlp).values() if isinstance(v, np.ndarray)]


def test_models_trained_back_to_back_share_no_memory():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, epochs=2, seed=4)
    first, _ = train(x, labels, cfg)
    second, _ = train(x, labels, cfg)
    for a in first.weights + first.biases:
        for b in second.weights + second.biases:
            assert not np.shares_memory(a, b)


# --- the batch BLAS work runs on one OpenBLAS thread (_one_blas_thread) ---


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and put back after it."""
    blas = mlp._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)


def test_openblas_is_found_in_a_numpy_that_bundles_it():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    bundled = blas["name"] == "scipy-openblas"
    if bundled and "USE64BITINT" in blas.get("openblas configuration", ""):
        assert mlp._openblas() is not None


# the criterion-4 split trained in one batch, then 64 rows run forward
_THREAD_COUNT_CHILD = """
import hashlib, io
from lightband import mlp
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace
from lightband.types import GestureLabel as G
sim = SimConfig(gesture_hold=1.2, relax_hold=0.8, transition_time=0.2, noise_sigma=2.0,
                drift=0.05, seed=303)
trace = synth_trace([G.EXTEND, G.FIST, G.ONE] * 4, DEFAULT_PROFILES, sim)
x, labels = mlp.trace_to_dataset(trace)
cfg = mlp.MlpConfig(output_dim=max(labels) + 1, epochs=3, batch_size=1000, seed=404)
model, _ = mlp.train(x[:880], labels[:880], cfg)
text = io.StringIO()
mlp.save_model(model, text)
print(hashlib.sha256(text.getvalue().encode()).hexdigest())
print(mlp.forward(model, x[:64]).tobytes().hex())
"""


def test_results_do_not_depend_on_the_blas_thread_count(blas_threads, monkeypatch):
    # without the one-thread rule, 2 threads changed both the model and the
    # outputs: a gemm split over threads rounds differently
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        child = run_python("-c", _THREAD_COUNT_CHILD)
        assert (child.returncode, child.stderr) == (0, "")
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]


def test_train_runs_on_one_blas_thread_and_restores_the_count(blas_threads, monkeypatch):
    x, labels = intensity_problem(40, 3, seed=2)
    infer = mlp._infer
    seen = []

    def scoring(model, rows, bufs=None):
        seen.append(blas_threads())
        # a nested entry point leaves the count at 1 for the caller
        no_dropout = replace(model, config=replace(model.config, dropout_rate=0.0))
        loss_and_gradients(no_dropout, rows[:3], one_hot(labels[:3], 3))
        seen.append(blas_threads())
        return infer(model, rows, bufs)

    monkeypatch.setattr(mlp, "_infer", scoring)
    train(x, labels, MlpConfig(output_dim=3, epochs=2, seed=2))
    assert seen == [1, 1, 1, 1]
    assert blas_threads() == 2


def test_a_diverging_train_restores_the_blas_count(blas_threads):
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1023, size=(40, 5))
    labels = rng.integers(0, 5, size=40)
    cfg = MlpConfig(hidden=(4,), epochs=8, learning_rate=7e152, dropout_rate=0.0)
    with pytest.raises(ValueError, match="^training diverged"):
        train(x, labels, cfg)
    assert blas_threads() == 2


def test_overlapping_batch_predictions_keep_one_thread_until_the_last_leaves(
    blas_threads, monkeypatch
):
    model = _BLOCK_MODELS[False]
    x = np.rint(np.random.default_rng(3).uniform(0, 1023, size=(300, 5)))
    want = predict_labels(model, x)
    entered = {name: threading.Event() for name in ("first", "second")}
    release = {name: threading.Event() for name in ("first", "second")}
    infer = mlp._infer

    def held(model, rows, *args, **kwargs):
        name = threading.current_thread().name
        entered[name].set()
        release[name].wait(30)
        return infer(model, rows, *args, **kwargs)

    monkeypatch.setattr(mlp, "_infer", held)
    got = {}
    workers = {
        name: threading.Thread(
            target=lambda name=name: got.setdefault(name, predict_labels(model, x)), name=name
        )
        for name in entered
    }
    # "first" enters, then "second"; "first" leaves while "second" is inside.
    # A plain save and restore would end on 1: "second" saved the 1 that
    # "first" had set.
    counts = []
    for name in workers:
        workers[name].start()
        assert entered[name].wait(30)
    counts.append(blas_threads())
    for name in workers:
        release[name].set()
        workers[name].join(30)
        assert not workers[name].is_alive()
        counts.append(blas_threads())
    assert counts == [1, 1, 2]
    assert [got[name].tolist() for name in workers] == [want.tolist()] * 2


def test_many_overlapping_predictions_restore_the_blas_count(blas_threads):
    # more Python threads than cores, switching often: a lost update to the
    # entry count would leave the count at 1 or the users above 0
    model = _BLOCK_MODELS[False]
    x = np.rint(np.random.default_rng(5).uniform(0, 1023, size=(50, 5)))
    want = predict_labels(model, x)
    matches = []

    def work():
        for _ in range(200):
            matches.append(np.array_equal(predict_labels(model, x), want))

    workers = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert matches == [True] * 800
    assert (blas_threads(), mlp._blas_users) == (2, 0)


def test_train_and_predict_without_openblas_give_the_same_outputs(monkeypatch):
    x, labels = intensity_problem(60, 3, seed=4)
    cfg = MlpConfig(output_dim=3, epochs=3, seed=4)

    def outputs():
        model, report = train(x, labels, cfg)
        return _model_text(model), report, predict_labels(model, x).tolist()

    want = outputs()
    monkeypatch.setattr(mlp, "_openblas", lambda: None)
    assert outputs() == want


@pytest.mark.parametrize(
    "field, value",
    [
        ("hidden", (2.5,)), ("hidden", (True,)), ("output_dim", 2.0), ("input_dim", "5"),
        ("epochs", 1.0), ("batch_size", True), ("seed", None), ("normalize", 1),
        ("normalize", "yes"), ("output_dim", np.bool_(True)), ("hidden", (np.float64(3.0),)),
    ],
)
def test_config_requires_integer_dims_and_counts_and_a_bool_normalize(field, value):
    with pytest.raises(ValueError, match="integer|bool"):
        MlpConfig(**{field: value})


def test_config_stores_numpy_integers_as_python_ints():
    given = {"input_dim": np.int16(5), "hidden": (np.uint8(4), np.int64(3)),
             "output_dim": np.int8(3), "epochs": np.uint64(2), "batch_size": np.int32(7),
             "seed": np.int64(9)}
    cfg = MlpConfig(**given)
    plain = MlpConfig(input_dim=5, hidden=(4, 3), output_dim=3, epochs=2, batch_size=7, seed=9)
    assert cfg == plain
    assert json.dumps(asdict(cfg)) == json.dumps(asdict(plain))  # json refuses numpy integers


@pytest.mark.parametrize("field, value, message", [
    ("input_dim", 0, "all layer dims must be >= 1, got (0, 100, 100, 5)"),
    ("hidden", (3, 0), "all layer dims must be >= 1, got (5, 3, 0, 5)"),
    ("l2", -0.01, "l2 must be non-negative, got -0.01"),
    ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
    ("adam_eps", -1e-8, "adam_eps must be positive, got -1e-08"),
    ("beta1", 1.0, "beta1 and beta2 must be in [0, 1), got 1.0, 0.999"),
    ("beta2", -0.5, "beta1 and beta2 must be in [0, 1), got 0.9, -0.5"),
    ("epochs", -1, "epochs must be non-negative, got -1"),
    ("batch_size", 0, "batch_size must be positive, got 0"),
    ("output_dim", 6, "output_dim must be at most 5, got 6"),
])
def test_config_refuses_a_value_outside_its_range(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MlpConfig(**{field: value})


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        MlpConfig(seed=-1)


def test_load_model_deeply_nested_config_is_a_value_error():
    with pytest.raises(ValueError, match="config"):
        load_model(io.StringIO(MODEL_MAGIC + "\n" + "[" * 100_000 + "\n"))


@st.composite
def small_models(draw):
    cfg = MlpConfig(
        input_dim=draw(st.integers(1, 4)),
        hidden=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
        output_dim=draw(st.integers(1, 4)),
        normalize=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    model = init_model(cfg, np.random.default_rng(cfg.seed))
    values = st.floats(allow_nan=False, allow_infinity=False)
    for array_ in model.weights + model.biases:
        if draw(st.booleans()):  # odd values: subnormals, huge, -0.0
            array_[...] = np.reshape(draw(st.lists(values, min_size=array_.size,
                                                   max_size=array_.size)), array_.shape)
    return model


def _model_text(model) -> str:
    sink = io.StringIO()
    save_model(model, sink)
    return sink.getvalue()


@settings(deadline=None, max_examples=60)
@given(small_models())
def test_model_save_load_save_is_byte_identical(model):
    text = _model_text(model)
    back = load_model(io.StringIO(text))
    assert back.config == model.config
    assert _model_text(back) == text


_MODEL_HEAD_BYTES = (MODEL_MAGIC + "\n").encode()


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.binary(max_size=300), st.binary(max_size=300).map(_MODEL_HEAD_BYTES.__add__)))
def test_load_model_random_bytes_raise_only_value_error(data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        load_model(stream)
    except ValueError:  # UnicodeDecodeError and JSONDecodeError are ones too
        pass


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 10**30), st.text(max_size=4),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_BAD_MODEL_TOKENS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "layer", "0", "-1", "2.5", "{"]),
    st.text(max_size=6),
)


@st.composite
def mutated_model_texts(draw):
    lines = _model_text(draw(small_models())).splitlines(keepends=True)
    row = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["config", "replace", "drop", "add", "delete", "duplicate"]))
    if kind == "config":
        cfg = json.loads(lines[1])
        cfg[draw(st.sampled_from(sorted(cfg)))] = draw(_JSON_VALUES)
        lines[1] = json.dumps(cfg) + "\n"
    elif kind in ("delete", "duplicate"):
        line = lines.pop(row)
        if kind == "duplicate":
            lines[row:row] = [line, line]
    else:
        tokens = lines[row].split()
        pos = draw(st.integers(0, len(tokens)))
        if kind == "replace" and pos < len(tokens):
            tokens[pos] = draw(_BAD_MODEL_TOKENS)
        elif kind == "drop" and pos < len(tokens):
            del tokens[pos]
        else:
            tokens.insert(pos, draw(_BAD_MODEL_TOKENS))
        lines[row] = " ".join(tokens) + "\n"
    return "".join(lines)


@settings(deadline=None, max_examples=300)
@given(mutated_model_texts())
def test_load_model_mutated_lines_raise_only_value_error(text):
    try:
        model = load_model(io.StringIO(text))
    except ValueError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc))
        assert not re.search(r"line \d+ column", str(exc))  # json's own position
        return
    assert len(model.weights) == len(model.config.layer_dims)


def batch_predict(model, rows):
    """predict_labels through the batch path alone: the one-row oracle."""
    x = _prepare(np.atleast_2d(np.asarray(rows, dtype=float)), model.config)
    return np.argmax(_infer(model, x), axis=1).tolist()


_ONE_ROW_MODELS = {
    (hidden, normalize): init_model(
        MlpConfig(hidden=hidden, output_dim=5, normalize=normalize, seed=len(hidden)),
        np.random.default_rng(len(hidden) + normalize),
    )
    for hidden in ((3,), (8, 6), (100, 100))
    for normalize in (False, True)
}

_ONE_ROW_INPUTS = st.one_of(
    st.lists(st.integers(0, 1023), min_size=5, max_size=5),
    st.lists(st.floats(), min_size=5, max_size=5),
)


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(400))
@given(st.sampled_from(sorted(_ONE_ROW_MODELS)), _ONE_ROW_INPUTS)
def test_one_row_predict_equals_batch_path(key, row):
    model = _ONE_ROW_MODELS[key]
    if not all(map(math.isfinite, row)):
        # a NaN or inf reading is refused on the one-row and the batch path
        for rows, bad in (([row], 0), (row, 0), ([[0.0] * 5, row], 1)):
            with pytest.raises(ValueError, match=f"^row {bad}: non-finite feature value$"):
                predict_labels(model, rows)
        return
    # the live loop's [[...]] list, a 1-D list, a (1, 5) and a 1-D array
    forms = ([row], row, np.asarray([row], dtype=float), np.asarray(row, dtype=float))
    with np.errstate(all="ignore"):  # overflowing readings on purpose
        want = batch_predict(model, [row])
        assert [predict_labels(model, form) for form in forms] == [want] * len(forms)


def test_predict_labels_other_shapes_take_the_batch_path():
    model = _ONE_ROW_MODELS[(3,), False]
    # a 1-D row of the wrong width is reported as the one-row matrix it becomes
    for x, shape in (([1.0] * 4, (1, 4)), (3.0, (1, 1)), (np.zeros((1, 1, 5)), (1, 1, 5)),
                     (np.zeros((5, 1)), (5, 1))):
        message = f"^expected feature matrix with 5 columns, got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            predict_labels(model, x)
    rows = np.arange(10.0).reshape(2, 5)
    assert predict_labels(model, rows).tolist() == batch_predict(model, rows)


def test_predict_labels_rejects_non_finite_rows():
    model = _ONE_ROW_MODELS[(3,), False]
    for value in (np.nan, np.inf, -np.inf):
        bad = [value, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="^row 0: non-finite feature value$"):
            predict_labels(model, [bad])
        with pytest.raises(ValueError, match="^row 2: non-finite feature value$"):
            predict_labels(model, [[1.0] * 5, [2.0] * 5, bad, bad])
    assert predict_labels(model, np.zeros((0, 5))).tolist() == []


def test_one_row_predict_equals_batch_path_on_overflowing_rows():
    # every row of these five values: hidden values go inf, and some outputs
    # NaN (first at index 0 or later) while others stay finite
    rows = list(itertools.product([1e308, -1e308, 1.7e308, -1.7e308, 0.0], repeat=5))
    nan_later = 0
    with np.errstate(all="ignore"):
        for model in _ONE_ROW_MODELS.values():
            for row in rows:
                assert predict_labels(model, [row]) == batch_predict(model, [row])
                out = _infer(model, _prepare(np.array([row]), model.config))[0]
                nan_later += bool(np.isnan(out).any() and not np.isnan(out[0]))
    assert nan_later > 0


def test_batch_predict_is_quiet_on_rows_that_overflow_the_network():
    # weights x 100 and rows of 1.7e308: the hidden gemms overflow to inf and
    # the output to NaN; the batch path keeps its label and prints nothing
    # (warnings are errors in this suite). The one-row path still warns.
    model = init_model(MlpConfig(), np.random.default_rng(0))
    for w in model.weights:
        w *= 100.0
    rows = np.full((3, 5), 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = predict_labels(model, rows)
    with np.errstate(all="ignore"):
        assert labels.tolist() == batch_predict(model, rows) == [0, 0, 0]
    with pytest.warns(RuntimeWarning):
        predict_labels(model, rows[0])


def test_one_row_predict_ties_and_nan_outputs_match_batch_path():
    zero = zero_model()  # both outputs 0.5
    saturated = zero_model()
    saturated.biases[-1][:] = [40.0, 50.0]  # both outputs round to 1.0
    nan_second = zero_model(MlpConfig(hidden=(3,), output_dim=3, dropout_rate=0.0))
    nan_second.biases[-1][:] = [1.0, np.nan, 2.0]
    for model, want in ((zero, 0), (saturated, 0), (nan_second, 1)):
        assert predict_labels(model, [[0.0] * 5]) == batch_predict(model, [[0.0] * 5]) == [want]


def _labels_text(labels) -> str:
    sink = io.StringIO()
    mlp.write_labels_csv(labels, sink)
    return sink.getvalue()


@pytest.mark.parametrize("dtype", _INTEGER_DTYPES)
def test_write_labels_csv_writes_integer_arrays(dtype):
    assert _labels_text(np.array([0, 3, 1], dtype=dtype)) == "0\n3\n1\n"
    assert _labels_text(np.array([], dtype=dtype)) == ""
    assert _labels_text(np.array([4, 2], dtype=dtype)) == "4\n2\n"
    assert _labels_text([GestureLabel.TRANSITION, GestureLabel.RELAX]) == "4\n0\n"



@pytest.mark.parametrize("bad, message", [
    (np.array([0, 1, 0]) * 1.5, "row 0: labels must be class indices, got dtype float64"),
    (np.array([1, 0, 1], dtype=bool), "row 0: labels must be class indices, got dtype bool"),
    (np.array([0, 1, 2], dtype=object), "row 0: labels must be class indices, got dtype object"),
    (np.zeros((3, 1), dtype=int), "labels must be one-dimensional, got shape (3, 1)"),
    ([0, 1, 2], "row 0: label must be a GestureLabel, got 0"),
    (np.array([0, 4, -1, 1]), "row 2: class index -1 outside [0, 5)"),
    (np.array([0, 4, -2, -1], dtype=np.int8), "row 2: class index -2 outside [0, 5)"),
    (np.array([0, 4, 5], dtype=np.uint64), "row 2: class index 5 outside [0, 5)"),
])
def test_write_labels_csv_rejects_what_is_not_a_class_index_array(bad, message):
    sink = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mlp.write_labels_csv(bad, sink)
    assert sink.getvalue() == ""
