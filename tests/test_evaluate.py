import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import E, F, O, R, T
from lightband.evaluate import (
    ConfusionMatrix,
    accuracy,
    accuracy_percent,
    confusion,
    render_report,
)
from lightband.types import GestureLabel


def test_perfect_predictions_sit_on_diagonal():
    truth = [R] * 40 + [E] * 30 + [F] * 20 + [O] * 10
    m = confusion(truth, truth)
    assert m.total == 100
    assert sum(m.counts[i][i] for i in range(4)) == 100
    assert accuracy(m) == 1.0


def test_relax_row_from_reported_split():
    # 654 relax truths: 652 predicted relax, 2 predicted one
    truth = [R] * 654
    pred = [R] * 652 + [O] * 2
    m = confusion(truth, pred)
    assert m.counts[0] == (652, 0, 0, 2, 0)
    assert m.row_total(0) == 654


def test_transition_truths_are_excluded():
    truth = [T] * 25
    pred = [R] * 25
    m = confusion(truth, pred)
    assert m.total == 0
    with pytest.raises(ValueError, match="no scorable"):
        accuracy(m)
    assert render_report(m) == "no scorable frames\n"


def test_predicted_transition_column_counts_as_error():
    truth = [E] * 10
    pred = [E] * 8 + [T] * 2
    m = confusion(truth, pred)
    assert m.counts[1][4] == 2
    assert accuracy(m) == 0.8


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        confusion([R], [R, R])


def test_mixed_dataset_accuracy_truncates_to_one_decimal():
    truth = [R] * 654 + [E] * 280 + [F] * 280 + [O] * 280
    pred = [R] * 652 + [O] * 2 + [E] * 280 + [F] * 280 + [O] * 280
    m = confusion(truth, pred)
    assert m.total == 1494
    assert accuracy(m) == pytest.approx(1492 / 1494)
    assert accuracy_percent(m) == 99.8
    assert render_report(m).strip().endswith("accuracy: 99.8%")


def test_single_row_accuracy():
    truth = [R] * 264
    pred = [R] * 261 + [O] * 3
    m = confusion(truth, pred)
    assert accuracy(m) == pytest.approx(261 / 264)
    assert accuracy_percent(m) == 98.8


def test_render_report_shape():
    truth = [R, R, E, F, O, T]
    pred = [R, E, E, F, O, R]
    report = render_report(confusion(truth, pred))
    lines = report.splitlines()
    assert lines[0].split() == [
        "truth", "RELAX", "EXTEND", "FIST", "ONE", "TRANSITION", "total",
    ]
    assert len(lines) == 6
    assert lines[-1].startswith("accuracy: ")


def test_render_report_perfect():
    report = render_report(confusion([R, E], [R, E]))
    assert report.strip().endswith("accuracy: 100.0%")


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_order_independence(seed, n):
    rng = np.random.default_rng(seed)
    truth = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    pred = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    m1 = confusion(truth, pred)
    order = rng.permutation(n)
    m2 = confusion([truth[i] for i in order], [pred[i] for i in order])
    assert m1.counts == m2.counts


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_row_sums_count_non_transition_truths(seed, n):
    rng = np.random.default_rng(seed)
    truth = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    pred = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    m = confusion(truth, pred)
    for i, cls in enumerate(m.classes):
        assert m.row_total(i) == sum(1 for t in truth if t is cls)
    if m.total:
        assert 0.0 <= accuracy(m) <= 1.0
        off_diag = m.total - sum(m.counts[i][i] for i in range(4))
        assert (accuracy(m) == 1.0) == (off_diag == 0)


def test_counts_validation():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionMatrix(counts=((-1, 0, 0, 0, 0),) + ((0,) * 5,) * 3)
    with pytest.raises(ValueError, match="4 rows"):
        ConfusionMatrix(counts=((0,) * 5,) * 3)


def brute_force_counts(truth, pred):
    counts = [[0] * 5 for _ in range(4)]
    for t, p in zip(truth, pred):
        if t is not T:
            counts[[R, E, F, O].index(t)][[R, E, F, O, T].index(p)] += 1
    return tuple(tuple(row) for row in counts)


@given(st.lists(st.tuples(st.sampled_from(list(GestureLabel)), st.sampled_from(list(GestureLabel)))))
def test_confusion_matches_brute_force_counter(pairs):
    truth = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    assert confusion(truth, pred).counts == brute_force_counts(truth, pred)
    assert confusion(iter(truth), iter(pred)).counts == brute_force_counts(truth, pred)


@pytest.mark.parametrize("bad", [0, "RELAX", None, 4])
def test_confusion_rejects_non_labels(bad):
    with pytest.raises(ValueError, match="GestureLabel"):
        confusion([R, bad], [R, R])
    with pytest.raises(ValueError, match="GestureLabel"):
        confusion([R, R], [bad, R])
