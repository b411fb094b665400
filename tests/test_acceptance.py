"""Acceptance suite: one checked, printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from conftest import E, F, O, R, make_trace, members, reference_bce
from lightband.baseline import BaselineConfig, BaselineTracker
from lightband.cli import main
from lightband.evaluate import accuracy, accuracy_percent, confusion
from lightband.ingest import parse_serial_line, read_collection_csv, write_collection_csv
from lightband.mlp import (
    MlpConfig,
    forward,
    init_model,
    loss_and_gradients,
    one_hot,
    predict_labels,
    split_dataset,
    trace_to_dataset,
    train,
)
from lightband.signature import classify_trace, generate_signatures
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace


def check(criterion: int, condition: bool, detail: str):
    status = "PASS" if condition else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert condition, f"criterion {criterion}: {detail}"


# --- criterion 2/3/8 shared pipeline -------------------------------------

SIG_SIM = dict(
    gesture_hold=5.0,
    relax_hold=2.0,
    transition_time=5.0,  # wide truth bands covering the 10-reading smoothing lag
    noise_sigma=2.0,
    drift=0.05,
)
SIG_BASELINE = BaselineConfig(alpha=0.2, window=12.0)  # spans ramp + hold
SIG_SCRIPT = [E, F, O, E, F, O]
SIG_TRAIN_SEED = 101
SIG_EVAL_SEED = 202


@pytest.fixture(scope="module")
def sig_run():
    t0 = time.monotonic()
    train_trace = synth_trace(
        SIG_SCRIPT, DEFAULT_PROFILES, SimConfig(**SIG_SIM, seed=SIG_TRAIN_SEED)
    )
    eval_trace = synth_trace(
        SIG_SCRIPT, DEFAULT_PROFILES, SimConfig(**SIG_SIM, seed=SIG_EVAL_SEED)
    )
    table = generate_signatures([train_trace])
    predicted = classify_trace(eval_trace, table, SIG_BASELINE)
    matrix = confusion(eval_trace.labels, predicted)
    return {
        "table": table,
        "eval_trace": eval_trace,
        "matrix": matrix,
        "elapsed": time.monotonic() - t0,
    }


# --- criterion 4/8 shared pipeline ----------------------------------------

MLP_SIM = SimConfig(
    gesture_hold=1.2, relax_hold=0.8, transition_time=0.2,
    noise_sigma=2.0, drift=0.05, seed=303,
)
MLP_SCRIPT = [E, F, O] * 4
MLP_SEED = 404


def run_mlp_training():
    trace = synth_trace(MLP_SCRIPT, DEFAULT_PROFILES, MLP_SIM)
    x, labels = trace_to_dataset(trace)
    (x_train, y_train), (x_test, y_test) = split_dataset(x, labels, 880)
    cfg = MlpConfig(
        hidden=(100, 100), output_dim=max(labels) + 1, dropout_rate=0.3,
        l2=0.01, epochs=150, batch_size=20, seed=MLP_SEED,
    )
    model, report = train(x_train, y_train, cfg, validation=(x_test, y_test))
    return x, model, report, (x_test, y_test)


@pytest.fixture(scope="module")
def mlp_run():
    t0 = time.monotonic()
    x, model, report, (x_test, y_test) = run_mlp_training()
    matrix = confusion(y_test, predict_labels(model, x_test))
    return {
        "rows": x.shape[0],
        "model": model,
        "report": report,
        "matrix": matrix,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_1_critical_angle(capsys):
    t0 = time.monotonic()
    code = main(["physics", "1.444", "1.000350"])
    elapsed = time.monotonic() - t0
    printed = capsys.readouterr().out.strip()
    angle = float(printed)
    with capsys.disabled():
        check(
            1,
            code == 0 and abs(angle - 43.85) <= 0.05 and elapsed < 1.0,
            f"physics(1.444, 1.000350) printed {printed} in {elapsed:.3f}s",
        )


def test_criterion_2_signature_pipeline_accuracy(sig_run):
    matrix = sig_run["matrix"]
    acc = accuracy(matrix)
    check(
        2,
        matrix.sum() >= 1400 and acc >= 0.99 and sig_run["elapsed"] < 10.0,
        f"{matrix.sum()} scorable frames, accuracy {acc:.4f} "
        f"({accuracy_percent(matrix):.1f}%), {sig_run['elapsed']:.2f}s",
    )


def test_criterion_3_signature_learning_fidelity(sig_run):
    assert DEFAULT_PROFILES.deltas[(E, 4)] == -223.0
    learned = sig_run["table"].deltas[(E, 4)]
    check(
        3,
        abs(learned - (-223.0)) <= 5.0,
        f"learned EXTEND/sensor-4 delta {learned:.2f} vs calibrated -223",
    )


def test_criterion_4_mlp_heldout_accuracy(mlp_run):
    acc = accuracy(mlp_run["matrix"])
    ok = (
        mlp_run["rows"] >= 1100
        and acc >= 0.95
        and mlp_run["elapsed"] < 120.0
        and mlp_run["report"].train_loss[99] < mlp_run["report"].train_loss[0]
    )
    check(
        4,
        ok,
        f"{mlp_run['rows']} rows, held-out accuracy {acc:.4f}, "
        f"trained in {mlp_run['elapsed']:.1f}s, "
        f"loss {mlp_run['report'].train_loss[0]:.3f} -> "
        f"{mlp_run['report'].train_loss[-1]:.3f}",
    )


def test_criterion_5_gradient_oracle():
    cfg = MlpConfig(
        input_dim=5, hidden=(3, 3), output_dim=2, dropout_rate=0.0, l2=0.01, seed=123
    )
    model = init_model(cfg, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(4, 5))
    targets = one_hot(rng.integers(0, 2, size=4), 2)
    _, grads_w, grads_b = loss_and_gradients(model, x, targets)

    def eval_loss():
        return reference_bce(forward(model, x), targets, model, cfg.l2)

    h = 1e-5
    worst = 0.0
    count = 0
    for analytic, param in zip(grads_w + grads_b, model.weights + model.biases):
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            hi = eval_loss()
            param[idx] = orig - h
            lo = eval_loss()
            param[idx] = orig
            numeric = (hi - lo) / (2 * h)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-10)
            worst = max(worst, rel)
            count += 1
    check(
        5,
        worst < 1e-4,
        f"{count} parameters on 5-3-3-2 net, worst relative error {worst:.2e}",
    )


def test_criterion_6_baseline_oracle():
    n = 10_000
    rng = np.random.default_rng(1234)
    rows = [[int(v) for v in rng.integers(0, 1024, size=5)] for _ in range(n)]
    trace = make_trace(rows, [R] * n)
    cfg = BaselineConfig()
    tracker = BaselineTracker(cfg)
    streamed = np.array([tracker.update(frame) for frame in trace.frames])

    # brute force: full EWMA history, then a scan-max over the trailing window
    times = np.array([f.t_rel for f in trace.frames])
    values = np.array(rows, dtype=float)
    smoothed = np.empty_like(values)
    smoothed[0] = values[0]
    for i in range(1, n):
        smoothed[i] = (1 - cfg.alpha) * smoothed[i - 1] + cfg.alpha * values[i]
    expected = np.empty_like(values)
    for i in range(n):
        lo = np.searchsorted(times, times[i] - cfg.window, side="right")
        expected[i] = smoothed[lo : i + 1].max(axis=0)

    diff = float(np.abs(streamed - expected).max())
    check(6, diff <= 1e-12, f"{n} frames, max |streamed - brute force| = {diff:.2e}")


def test_criterion_7_format_fidelity(tmp_path):
    trace = synth_trace(
        [E, F], DEFAULT_PROFILES,
        SimConfig(gesture_hold=0.4, relax_hold=0.3, transition_time=0.1, seed=77),
    )
    path = tmp_path / "trace.csv"
    write_collection_csv(trace, str(path))
    lines = path.read_text().splitlines()
    trailing = all(line.endswith(",") for line in lines[1:])
    back = read_collection_csv(str(path))
    identity = (
        list(back.frames) == list(trace.frames) and members(back.labels) == members(trace.labels)
    )

    corrupt = [
        "1,2,3,4",            # too few fields
        "1,2,3,4,5,6",        # too many fields
        "1,2,x,4,5",          # non-integer token
        "1.5,2,3,4,5",        # non-integer token
        "1,2,3,4,1024",       # above range
        "-1,2,3,4,5",         # below range
        ",2,3,4,5",           # empty token
    ]
    rejected = 0
    for line in corrupt:
        try:
            parse_serial_line(line)
        except ValueError:
            rejected += 1
    check(
        7,
        identity and trailing and rejected == len(corrupt),
        f"round trip identity on {len(trace)} rows with trailing commas; "
        f"{rejected}/{len(corrupt)} corrupt lines rejected",
    )


def test_criterion_8_determinism(sig_run, mlp_run, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = SimConfig(**SIG_SIM, seed=SIG_EVAL_SEED)
    write_collection_csv(synth_trace(SIG_SCRIPT, DEFAULT_PROFILES, cfg), str(a))
    write_collection_csv(synth_trace(SIG_SCRIPT, DEFAULT_PROFILES, cfg), str(b))
    csv_identical = a.read_bytes() == b.read_bytes()

    _, model2, _, _ = run_mlp_training()
    model1 = mlp_run["model"]
    params_identical = all(
        np.array_equal(p1, p2)
        for p1, p2 in zip(
            model1.weights + model1.biases, model2.weights + model2.biases
        )
    )
    check(
        8,
        csv_identical and params_identical,
        f"regenerated CSV byte-identical: {csv_identical}; "
        f"retrained parameters identical: {params_identical}",
    )


def test_criterion_9_confusion_arithmetic():
    truth = [R] * 654 + [E] * 280 + [F] * 280 + [O] * 280
    pred = [R] * 652 + [O] * 2 + [E] * 280 + [F] * 280 + [O] * 280
    matrix = confusion(truth, pred)
    correct = np.trace(matrix)
    check(
        9,
        matrix.sum() == 1494
        and correct == 1492
        and matrix[0].tolist() == [652, 0, 0, 2, 0]
        and accuracy_percent(matrix) == 99.8,
        f"{correct} of {matrix.sum()} correct, reported accuracy "
        f"{accuracy_percent(matrix):.1f}%",
    )
