import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, oracle_examples
from lightband.evaluate import accuracy, accuracy_percent, confusion, render_report
from lightband.types import CLASS_INDEX, SCOREABLE_CLASSES, FrameError, GestureLabel


def test_perfect_predictions_sit_on_diagonal():
    truth = [R] * 40 + [E] * 30 + [F] * 20 + [O] * 10
    m = confusion(truth, truth)
    assert m.sum() == 100
    assert np.trace(m) == 100
    assert accuracy(m) == 1.0


def test_confusion_is_a_read_only_count_array():
    m = confusion([R, E, T], [R, T, E])
    assert m.shape == (4, 5) and m.dtype.kind == "i"
    assert m.tolist() == [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0] * 5, [0] * 5]
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0
    assert type(accuracy(m)) is float


def test_relax_row_from_reported_split():
    # 654 relax truths: 652 predicted relax, 2 predicted one
    truth = [R] * 654
    pred = [R] * 652 + [O] * 2
    m = confusion(truth, pred)
    assert m[0].tolist() == [652, 0, 0, 2, 0]
    assert m[0].sum() == 654


def test_transition_truths_are_excluded():
    truth = [T] * 25
    pred = [R] * 25
    m = confusion(truth, pred)
    assert m.sum() == 0
    with pytest.raises(ValueError, match="no scorable"):
        accuracy(m)
    assert render_report(m) == "no scorable frames\n"


def test_predicted_transition_column_counts_as_error():
    truth = [E] * 10
    pred = [E] * 8 + [T] * 2
    m = confusion(truth, pred)
    assert m[1, 4] == 2
    assert accuracy(m) == 0.8


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        confusion([R], [R, R])


def test_mixed_dataset_accuracy_truncates_to_one_decimal():
    truth = [R] * 654 + [E] * 280 + [F] * 280 + [O] * 280
    pred = [R] * 652 + [O] * 2 + [E] * 280 + [F] * 280 + [O] * 280
    m = confusion(truth, pred)
    assert m.sum() == 1494
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
    assert np.array_equal(m1, m2)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_row_sums_count_non_transition_truths(seed, n):
    rng = np.random.default_rng(seed)
    truth = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    pred = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    m = confusion(truth, pred)
    for i, cls in enumerate(SCOREABLE_CLASSES):
        assert m[i].sum() == sum(1 for t in truth if t is cls)
    if m.sum():
        assert 0.0 <= accuracy(m) <= 1.0
        off_diag = m.sum() - np.trace(m)
        assert (accuracy(m) == 1.0) == (off_diag == 0)


def brute_force_counts(truth, pred):
    counts = [[0] * 5 for _ in range(4)]
    for t, p in zip(truth, pred):
        if t is not T:
            counts[[R, E, F, O].index(t)][[R, E, F, O, T].index(p)] += 1
    return counts


@given(st.lists(st.tuples(st.sampled_from(list(GestureLabel)), st.sampled_from(list(GestureLabel)))))
def test_confusion_matches_brute_force_counter(pairs):
    truth = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    assert confusion(truth, pred).tolist() == brute_force_counts(truth, pred)
    assert confusion(iter(truth), iter(pred)).tolist() == brute_force_counts(truth, pred)


def codes_of(labels, dtype=np.int8):
    return np.array([CLASS_INDEX[label] for label in labels], dtype=dtype)


@pytest.mark.oracle
@settings(max_examples=oracle_examples(100))
@given(
    st.lists(st.tuples(st.sampled_from(list(GestureLabel)), st.sampled_from(list(GestureLabel)))),
    st.sampled_from([np.int8, np.int64, np.uint16]),
)
def test_confusion_of_codes_equals_confusion_of_members(pairs, dtype):
    truth = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    expected = brute_force_counts(truth, pred)
    for t, p in ((codes_of(truth, dtype), pred), (truth, codes_of(pred, dtype)),
                 (codes_of(truth, dtype), codes_of(pred, dtype))):
        m = confusion(t, p)
        assert m.tolist() == expected
        assert m.dtype == confusion(truth, pred).dtype and not m.flags.writeable


@pytest.mark.parametrize("bad", [-1, 5, 300])
def test_confusion_rejects_a_class_index_outside_the_labels(bad):
    codes = np.array([0, bad], dtype=np.int16)
    for truth, pred in ((codes, [R, R]), ([R, R], codes)):
        with pytest.raises(FrameError, match=f"class index {bad} outside") as caught:
            confusion(truth, pred)
        assert caught.value.index == 1


@pytest.mark.parametrize("bad", [0, "RELAX", None, 4])
def test_confusion_rejects_non_labels(bad):
    with pytest.raises(ValueError, match="GestureLabel"):
        confusion([R, bad], [R, R])
    with pytest.raises(ValueError, match="GestureLabel"):
        confusion([R, R], [bad, R])
