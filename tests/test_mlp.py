import io
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    E,
    R,
    file_lines,
    make_trace,
    reference_bce,
    reference_forward,
    reference_gradients,
    reference_labels,
    reference_sigmoid,
    reference_train,
    write_features_csv,
)
from lightband import mlp
from lightband.mlp import (
    MODEL_MAGIC,
    MlpConfig,
    MlpModel,
    TrainReport,
    _as_indices,
    _infer,
    _prepare,
    _sigmoid,
    forward,
    init_model,
    load_features_csv,
    load_labels_csv,
    load_model,
    loss_and_gradients,
    one_hot,
    predict_labels,
    save_model,
    split_dataset,
    trace_to_dataset,
    train,
    write_labels_csv,
    write_metrics_csv,
)

from lightband.types import ROW_BLOCK, GestureLabel

TINY = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.0, l2=0.01, seed=123)


def tiny_problem(data_seed=7, cfg=TINY):
    model = init_model(cfg, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(-1, 1, size=(4, 5))
    targets = one_hot([int(v) for v in rng.integers(0, cfg.output_dim, size=4)], cfg.output_dim)
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
    m = one_hot([2], 5)
    assert m.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0]]
    assert one_hot([], 5).shape == (0, 5)
    assert one_hot([R, E], 5).tolist() == [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
    ]
    with pytest.raises(ValueError, match="class index"):
        one_hot([5], 5)


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


def test_forward_dropout_seeded():
    cfg = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.3, seed=123)
    model, x, _ = tiny_problem(cfg=cfg)
    a = forward(model, x, training=True, rng=np.random.default_rng(90))
    b = forward(model, x, training=True, rng=np.random.default_rng(90))
    assert np.array_equal(a, b)
    c = forward(model, x, training=True, rng=np.random.default_rng(91))
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
    assert loss_and_gradients(model, x, targets, training=False)[0] == pytest.approx(math.log(2))
    # +-50 on the output bias: sigmoid gives exactly 1.0 and 2e-22, which
    # the clamp keeps inside the logs
    model.biases[-1][:] = [-50.0, 50.0]
    loss = loss_and_gradients(model, x, one_hot([1] * len(x), 2), training=False)[0]
    assert 0 < loss < 1e-6


def test_bce_loss_includes_weight_penalty():
    model, x, targets = tiny_problem()
    with_penalty = loss_and_gradients(model, x, targets, training=False)[0]
    bare_model = replace(model, config=replace(TINY, l2=0.0))
    bare = loss_and_gradients(bare_model, x, targets, training=False)[0]
    expected = TINY.l2 * sum(float(np.sum(w * w)) for w in model.weights[:-1])
    assert with_penalty - bare == pytest.approx(expected)
    assert with_penalty == reference_bce(forward(model, x), targets, model, TINY.l2)


def test_gradients_match_finite_differences():
    model, x, targets = tiny_problem()
    loss, grads_w, grads_b = loss_and_gradients(model, x, targets, training=False)

    def eval_loss():
        return reference_bce(forward(model, x), targets, model, TINY.l2)

    assert loss == pytest.approx(eval_loss())
    assert max_relative_error(model, grads_w, grads_b, eval_loss) < 1e-4


def test_gradients_match_with_dropout_masks_fixed():
    cfg = MlpConfig(input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.3, l2=0.01, seed=123)
    model, x, targets = tiny_problem(cfg=cfg)
    loss, grads_w, grads_b = loss_and_gradients(
        model, x, targets, rng=np.random.default_rng(90), training=True
    )

    def eval_loss():
        out = forward(model, x, training=True, rng=np.random.default_rng(90))
        return reference_bce(out, targets, model, cfg.l2)

    assert loss == pytest.approx(eval_loss())
    assert max_relative_error(model, grads_w, grads_b, eval_loss) < 1e-4


def separable_toy():
    rng = np.random.default_rng(17)
    x0 = np.column_stack([rng.uniform(0.0, 0.4, 10), rng.uniform(-1, 1, (10, 4)).reshape(10, 4)[:, 0],
                          rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)])
    x1 = x0.copy()
    x1[:, 0] += 1.4  # margin of at least 1 on the first feature
    x = np.vstack([x0, x1])
    labels = [0] * 10 + [1] * 10
    return x, labels


def test_train_separable_toy_reaches_perfect_accuracy():
    x, labels = separable_toy()
    cfg = MlpConfig(output_dim=2, dropout_rate=0.0, l2=0.0, epochs=150, batch_size=20, seed=1)
    model, report = train(x, labels, cfg)
    assert report.train_acc[-1] == 1.0
    assert report.train_loss[-1] < report.train_loss[0]
    assert predict_labels(model, x) == labels


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


def test_train_input_validation():
    with pytest.raises(ValueError, match="empty"):
        train(np.zeros((0, 5)), [], MlpConfig(output_dim=2))
    with pytest.raises(ValueError, match="columns"):
        train(np.zeros((3, 4)), [0, 1, 0], MlpConfig(output_dim=2))
    with pytest.raises(ValueError, match="labels"):
        train(np.zeros((3, 5)), [0, 1], MlpConfig(output_dim=2))


def test_predict_tie_breaks_to_lowest_index():
    model = zero_model()  # every output is 0.5
    assert predict_labels(model, np.zeros((3, 5))) == [0, 0, 0]


def test_predict_matches_argmax_of_forward():
    model, x, _ = tiny_problem()
    out = forward(model, x)
    assert predict_labels(model, x) == [int(i) for i in np.argmax(out, axis=1)]


def test_split_dataset():
    x = np.arange(2000 * 5, dtype=float).reshape(2000, 5)[:1000]
    labels = list(range(1000))
    (xa, la), (xb, lb) = split_dataset(x, labels, 880)
    assert xa.shape == (880, 5) and xb.shape == (120, 5)
    assert la == labels[:880] and lb == labels[880:]
    (xa, la), (xb, lb) = split_dataset(x, labels, 0)
    assert xa.shape[0] == 0 and xb.shape[0] == 1000
    (xa, la), (xb, lb) = split_dataset(x, labels, 1000)
    assert xb.shape[0] == 0
    with pytest.raises(ValueError, match="boundary"):
        split_dataset(x, labels, 1001)


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
    out = forward(model, x, training=True, rng=np.random.default_rng(123))
    # the hidden unit is 1 / (1 - rate) where kept and 0 where dropped, and
    # the output is its sigmoid, so a kept unit reads above 0.5
    kept = float(np.mean(out > 0.5))
    assert abs(kept / (1.0 - cfg.dropout_rate) - 1.0) < 0.01


def test_trace_to_dataset():
    trace = make_trace([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]], [R, E])
    x, y = trace_to_dataset(trace)
    assert x.tolist() == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    assert y == [0, 1]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.sampled_from(list(GestureLabel)), max_size=40))
def test_trace_to_dataset_labels_are_label_values(labels):
    _, y = trace_to_dataset(make_trace([[0] * 5] * len(labels), labels))
    assert y == [label.value for label in labels]
    assert all(type(v) is int for v in y)


def reference_one_hot(labels, num_classes: int) -> np.ndarray:
    """The per-row encoder the vectorised one_hot and _as_indices replace."""
    indices = []
    for label in labels:
        if isinstance(label, GestureLabel):
            indices.append(label.value)
        elif isinstance(label, (int, np.integer)) and not isinstance(label, bool):
            indices.append(int(label))
        else:
            raise ValueError(f"class index must be an integer, got {label!r}")
    out = np.zeros((len(indices), num_classes))
    for row, idx in enumerate(indices):
        if not 0 <= idx < num_classes:
            raise ValueError(f"class index {idx} outside [0, {num_classes})")
        out[row, idx] = 1.0
    return out


_MIXED_LABELS = st.lists(
    st.one_of(
        st.sampled_from(list(GestureLabel)),
        st.integers(-2, 7),
        st.integers(-2, 7).map(np.int64),
        st.integers(),  # includes values too wide for int64
        st.floats(-2, 7),  # 2.9 is not class 2
        st.booleans(),  # True is not class 1
    ),
    max_size=30,
)


@settings(deadline=None, max_examples=400)
@given(_MIXED_LABELS, st.integers(1, 6))
def test_one_hot_and_as_indices_match_per_row_reference(labels, num_classes):
    try:
        expected = reference_one_hot(labels, num_classes)
    except ValueError as exc:
        for encode in (one_hot, _as_indices):
            with pytest.raises(ValueError) as caught:
                encode(labels, num_classes)
            assert str(caught.value) == str(exc)
        return
    got = one_hot(labels, num_classes)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    indices = [l.value if isinstance(l, GestureLabel) else int(l) for l in labels]
    assert _as_indices(labels, num_classes).tolist() == indices


def test_feature_and_label_csv_round_trip():
    x = np.array([[1.5, 2, 3, 4, 5], [600, 700, 800, 900, 1000]])
    labels = [0, 3]
    fx, fy = io.StringIO(), io.StringIO()
    write_features_csv(x, fx)
    write_labels_csv(labels, fy)
    assert np.array_equal(load_features_csv(io.StringIO(fx.getvalue())), x)
    assert load_labels_csv(io.StringIO(fy.getvalue())) == labels
    with pytest.raises(ValueError, match="5 columns"):
        load_features_csv(io.StringIO("1,2,3\n"))
    with pytest.raises(ValueError, match="non-integer"):
        load_labels_csv(io.StringIO("x\n"))


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
    assert predict_labels(model, x) == labels


def test_load_features_csv_rejects_non_finite():
    for value in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ValueError, match="line 2: non-finite feature value"):
            load_features_csv(io.StringIO(f"1,2,3,4,5\n{value},2,3,4,5\n"))


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
    labels = rng.integers(0, 5, size=40).tolist()
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
    labels = [int(v) for v in rng.integers(0, classes, size=n)]
    centers = rng.uniform(100, 900, size=(classes, 5))
    x = np.rint(centers[labels] + rng.normal(0, 40, size=(n, 5)))
    return x, labels


@pytest.mark.parametrize(
    "hidden, dropout, l2, batch, with_val, normalize",
    [
        ((3,), 0.0, 0.0, 7, False, False),
        ((8, 6), 0.3, 0.01, 7, True, True),
        ((4, 5, 3), 0.5, 0.0, 30, True, False),
        ((100, 100), 0.3, 0.01, 20, True, False),
        ((100, 100), 0.0, 0.01, 1, False, True),
        ((12, 9), 0.2, 0.05, 11, True, True),
        ((5, 4), 0.3, 0.01, 50, True, False),  # one batch, shorter than batch_size
        ((7,), 0.4, 0.01, 8, True, False),  # one hidden layer with dropout
        ((6, 5), 0.3, 0.0, 9, False, True),  # dropout without the L2 term
    ],
)
def test_train_equals_per_tensor_reference(hidden, dropout, l2, batch, with_val, normalize):
    x, labels = intensity_problem(45, 4, seed=len(hidden) + batch)
    validation = (x[30:], labels[30:]) if with_val else None
    for epochs in (0, 4):
        cfg = MlpConfig(hidden=hidden, output_dim=4, dropout_rate=dropout, l2=l2, epochs=epochs,
                        batch_size=batch, seed=batch, normalize=normalize)
        model, report = train(x[:30], labels[:30], cfg, validation=validation)
        ref_model, ref_report = reference_train(x[:30], labels[:30], cfg, validation=validation)
        for got, want in zip(model.weights + model.biases, ref_model.weights + ref_model.biases):
            assert got.tobytes() == want.tobytes()
        assert report == ref_report
        assert len(report.val_loss) == (epochs if with_val else 0)

    # on the trained model, the public training-mode calls run train's step
    rows = _prepare(x[:30], cfg)
    targets = one_hot(labels[:30], 4)
    loss, grads_w, grads_b = loss_and_gradients(
        model, rows, targets, rng=np.random.default_rng(99), training=True
    )
    want = reference_gradients(model, rows, targets, np.random.default_rng(99))
    assert [g.tobytes() for g in grads_w + grads_b] == [g.tobytes() for g in want]
    want_out = reference_forward(model, rows, True, np.random.default_rng(99))[0]
    got_out = forward(model, rows, training=True, rng=np.random.default_rng(99))
    assert got_out.tobytes() == want_out.tobytes()
    assert loss == reference_bce(want_out, targets, model, l2)


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
    [1, 2, 255, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7, 3 * ROW_BLOCK - 1,
     22_200],
)
def test_blocked_inference_equals_whole_array_reference(n, normalize):
    # _infer runs blocks of ROW_BLOCK rows, a short tail joining the block
    # before it; every output byte and label is the whole-array pass's
    model = _BLOCK_MODELS[normalize]
    x = np.rint(np.random.default_rng(n).uniform(0, 1023, size=(n, 5)))
    want = reference_forward(model, _prepare(x, model.config), False, None)[0]
    assert forward(model, _prepare(x, model.config)).tobytes() == want.tobytes()
    labels = predict_labels(model, x)
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
    assert peak < 16 * 2**20


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("hidden", (2.5,)), ("hidden", (True,)), ("output_dim", 2.0), ("input_dim", "5"),
        ("epochs", 1.0), ("batch_size", True), ("seed", None), ("normalize", 1),
        ("normalize", "yes"),
    ],
)
def test_config_requires_integer_dims_and_counts_and_a_bool_normalize(field, value):
    with pytest.raises(ValueError, match="integer|bool"):
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


@settings(deadline=None, max_examples=400)
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
    assert predict_labels(model, rows) == batch_predict(model, rows)


def test_predict_labels_rejects_non_finite_rows():
    model = _ONE_ROW_MODELS[(3,), False]
    for value in (np.nan, np.inf, -np.inf):
        bad = [value, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="^row 0: non-finite feature value$"):
            predict_labels(model, [bad])
        with pytest.raises(ValueError, match="^row 2: non-finite feature value$"):
            predict_labels(model, [[1.0] * 5, [2.0] * 5, bad, bad])
    assert predict_labels(model, np.zeros((0, 5))) == []


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


def test_one_row_predict_ties_and_nan_outputs_match_batch_path():
    zero = zero_model()  # both outputs 0.5
    saturated = zero_model()
    saturated.biases[-1][:] = [40.0, 50.0]  # both outputs round to 1.0
    nan_second = zero_model(MlpConfig(hidden=(3,), output_dim=3, dropout_rate=0.0))
    nan_second.biases[-1][:] = [1.0, np.nan, 2.0]
    for model, want in ((zero, 0), (saturated, 0), (nan_second, 1)):
        assert predict_labels(model, [[0.0] * 5]) == batch_predict(model, [[0.0] * 5]) == [want]


@settings(deadline=None, max_examples=200)
@given(st.binary(max_size=300))
def test_feature_and_label_files_from_random_bytes_raise_only_value_error(data):
    for load in (load_features_csv, load_labels_csv):
        try:
            load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        except ValueError:  # UnicodeDecodeError is one too
            pass


@st.composite
def mutated_feature_and_label_texts(draw):
    """A valid features file and labels file, one line of each mutated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    x_sink, y_sink = io.StringIO(), io.StringIO()
    write_features_csv(np.rint(rng.uniform(0, 1023, size=(n, 5))), x_sink)
    write_labels_csv(rng.integers(0, 5, size=n).tolist(), y_sink)
    texts = []
    for text in (x_sink.getvalue(), y_sink.getvalue()):
        lines = text.splitlines(keepends=True)
        row = draw(st.integers(0, n - 1))
        tokens = lines[row].rstrip("\n").split(",")
        kind = draw(st.sampled_from(["replace", "drop", "add", "delete", "duplicate", "blank"]))
        pos = draw(st.integers(0, len(tokens)))
        if kind == "replace" and pos < len(tokens):
            tokens[pos] = draw(_BAD_MODEL_TOKENS)
        elif kind == "drop" and pos < len(tokens):
            del tokens[pos]
        elif kind == "add":
            tokens.insert(pos, draw(_BAD_MODEL_TOKENS))
        lines[row] = ",".join(tokens) + "\n"
        if kind == "delete":
            del lines[row]
        elif kind == "duplicate":
            lines.insert(row, lines[row])
        elif kind == "blank":
            lines.insert(row, draw(st.sampled_from(["\n", " \n", "\r\n"])))
        texts.append("".join(lines))
    return texts


@settings(deadline=None, max_examples=300)
@given(mutated_feature_and_label_texts())
def test_feature_and_label_files_mutated_lines_raise_only_value_error(texts):
    x_text, y_text = texts
    # what a file that loads must hold: its non-blank lines, parsed as given
    try:
        x = load_features_csv(io.StringIO(x_text, newline=""))
    except ValueError:
        pass
    else:
        rows = [list(map(float, line.split(","))) for line in file_lines(x_text) if line.strip()]
        assert x.tolist() == rows and np.isfinite(x).all()
    try:
        labels = load_labels_csv(io.StringIO(y_text, newline=""), 5)
    except ValueError:
        pass
    else:
        assert labels == [int(line) for line in file_lines(y_text) if line.strip()]
        assert all(0 <= label < 5 for label in labels)


def test_load_labels_csv_range_check_names_the_file_line():
    text = "0\n\n4\n7\n"
    assert load_labels_csv(io.StringIO(text)) == [0, 4, 7]
    with pytest.raises(ValueError, match=r"^line 4: class index 7 outside \[0, 5\)$"):
        load_labels_csv(io.StringIO(text), 5)
