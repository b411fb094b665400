import copy
import io
import pickle
import re
import statistics
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, R, T, flat_rows, make_trace, members, oracle_examples, run_python
from lightband import mlp
from lightband.baseline import batch_baselines
from lightband.evaluate import confusion
from lightband.ingest import write_label_file
from lightband.types import (
    CLASS_INDEX,
    CLASS_LABELS,
    LABEL_TEXT,
    ROW_BLOCK,
    FrameError,
    GestureLabel,
    LabeledTrace,
    SensorFrame,
    _check_intensity,
    label_codes,
    parse_label,
    segment_trace,
)

ALL_LABELS = list(GestureLabel)


def test_parse_label_examples():
    assert parse_label("extend") is E
    assert parse_label("RELAX") is R
    assert parse_label("  fist \n") is F


def test_parse_label_unknown_names_token():
    with pytest.raises(ValueError, match="flex"):
        parse_label("flex")


@given(st.sampled_from(ALL_LABELS))
def test_label_text_round_trip(label):
    assert parse_label(str(label)) is label
    assert parse_label(str(label).lower()) is label


def test_labels_hash_by_identity():
    assert list(GestureLabel.__members__) == ["RELAX", "EXTEND", "FIST", "ONE", "TRANSITION"]
    for label in ALL_LABELS:
        assert hash(label) == object.__hash__(label)
        assert pickle.loads(pickle.dumps(label)) is label
        assert copy.copy(label) is label and copy.deepcopy(label) is label
        assert {label: 1}[label] == 1 and label in set(ALL_LABELS)
        assert LABEL_TEXT[label] == label.name.lower()
    counts = Counter([R, E, R, T, R])
    assert counts[R] == 3 and counts[E] == 1 and counts[F] == 0
    assert len({R, R, E}) == 2 and {R: 1} != {E: 1}
    assert 0 not in set(ALL_LABELS) and "RELAX" not in {R: 1}


def test_sensor_frame_validation():
    SensorFrame(t_rel=0.0, t_unix=0.0, channels=[0, 1023, 512, 1, 2])
    with pytest.raises(ValueError, match="1024"):
        SensorFrame(t_rel=0.0, t_unix=0.0, channels=[1024, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="-1"):
        SensorFrame(t_rel=0.0, t_unix=0.0, channels=[-1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="channels"):
        SensorFrame(t_rel=0.0, t_unix=0.0, channels=[1, 2, 3, 4])
    with pytest.raises(ValueError, match="t_rel"):
        SensorFrame(t_rel=-0.1, t_unix=0.0, channels=[0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="integer"):
        SensorFrame(t_rel=0.0, t_unix=0.0, channels=[0.5, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"^channel value inf outside \[0, 1023\]$"):
        SensorFrame(t_rel=0.0, t_unix=0.0, channels=[0, 0, float("inf"), 0, 0])


_CHANNEL_VALUES = st.one_of(
    st.integers(-2, 1025),
    st.booleans(),
    st.integers(-2, 1025).map(np.int64),
    st.integers(-2, 1025).map(float),
    st.floats(),
    st.sampled_from([2**70, -(2**70), 1023.0000000000001, -0.0]),
)


@st.composite
def channel_lists(draw):
    """Five in-range ints, some of them swapped for any other channel value."""
    values = draw(st.lists(st.integers(0, 1023), min_size=5, max_size=5))
    for i in draw(st.sets(st.integers(0, 4))):
        values[i] = draw(_CHANNEL_VALUES)
    return values


@settings(max_examples=300)
@given(channel_lists(), st.booleans())
def test_sensor_frame_channels_equal_the_per_value_check(values, as_tuple):
    # the oracle: SensorFrame's check one value at a time, as before the
    # fast path for in-range plain ints
    channels = tuple(values) if as_tuple else values
    try:
        want = tuple(_check_intensity(v) for v in values)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            SensorFrame(t_rel=0.0, t_unix=0.0, channels=channels)
        assert str(info.value) == str(exc)
        return
    got = SensorFrame(t_rel=0.0, t_unix=0.0, channels=channels).channels
    assert got == want
    assert list(map(type, got)) == [int] * 5


def test_trace_validation():
    with pytest.raises(ValueError, match="length"):
        make_trace(flat_rows(10, 3), [R, R])
    with pytest.raises(ValueError, match="increasing"):
        LabeledTrace(t_rel=[0.0, 0.0], t_unix=[0.0, 0.0], channels=flat_rows(0, 2), labels=[R, R])
    # one uneven step among even ones, more than 50% off the median step
    for t_rel, row, step in (([0, 1, 2, 4, 5, 6], 3, 2.0), ([0, 1, 2, 2.25, 3.25], 3, 0.25)):
        message = f"^row {row}: frame spacing {step} outside 50% of the median step 1.0$"
        with pytest.raises(FrameError, match=message) as caught:
            LabeledTrace(t_rel, t_rel, flat_rows(0, len(t_rel)), [R] * len(t_rel))
        assert caught.value.index == row
    # within 50% of the median, and any spacing of two frames, passes
    for t_rel in ([0, 1, 2, 3.5, 4.5], [0, 1, 2, 2.5, 3.5], [0.0, 7.0]):
        LabeledTrace(t_rel, t_rel, flat_rows(0, len(t_rel)), [R] * len(t_rel))
    # the increasing check is a pass of its own: a later repeat is reported
    # before an earlier spacing fault
    t_rel = [0, 1, 3, 4, 4]
    message = r"^row 4: t_rel must be strictly increasing \(4.0 -> 4.0\)$"
    with pytest.raises(FrameError, match=message) as caught:
        LabeledTrace(t_rel, t_rel, flat_rows(0, 5), [R] * 5)
    assert caught.value.index == 4


def reference_time_fault(t_rel):
    """(row, message) of the first time fault of a trace whose times are
    finite and non-negative, or None: the rule step by step in Python."""
    steps = [later - earlier for earlier, later in zip(t_rel, t_rel[1:])]
    for row, step in enumerate(steps, 1):
        if step <= 0:
            return row, f"t_rel must be strictly increasing ({t_rel[row - 1]} -> {t_rel[row]})"
    if steps:
        median = statistics.median(steps)
        for row, step in enumerate(steps, 1):
            if not 0.5 * median * (1 - 1e-9) <= step <= 1.5 * median * (1 + 1e-9):
                return row, f"frame spacing {step} outside 50% of the median step {median}"
    return None


# mostly even steps, then zero, negative and uneven ones: about 60% of the
# drawn traces fail the increasing check, 15% the spacing check
_STEPS = st.one_of(
    st.sampled_from([0.02] * 12 + [0.0, -0.0, -0.02, 0.01, 0.00999, 0.03, 0.0301, 0.05]),
    st.floats(0.012, 0.028),
    st.floats(-0.05, 0.1),
)


@settings(max_examples=400)
@given(st.sampled_from([0.0, 1.0, 1e6]), st.lists(_STEPS, max_size=12))
def test_time_checks_equal_the_per_step_reference(start, steps):
    t_rel = [start + 1.0]  # room for 12 steps back of at most 0.05
    for step in steps:
        t_rel.append(t_rel[-1] + step)
    want = reference_time_fault(t_rel)
    n = len(t_rel)
    try:
        LabeledTrace(t_rel, [0.0] * n, flat_rows(0, n), [R] * n)
    except FrameError as exc:
        assert (exc.index, exc.reason) == want
        return
    assert want is None


def test_traces_are_checked_without_importing_numpy_ma(tmp_path):
    """np.median imports numpy.ma (about 2 MB) on its first call; the
    median step comes from np.partition instead."""
    child = run_python("-c", (
        "import sys\n"
        "from lightband.ingest import read_collection_csv, write_collection_csv\n"
        "from lightband.simulate import synth_trace\n"
        "from lightband.types import GestureLabel\n"
        "trace = synth_trace([GestureLabel.EXTEND, GestureLabel.FIST])\n"
        "write_collection_csv(trace, sys.argv[1])\n"
        "assert read_collection_csv(sys.argv[1]) == trace\n"
        "print(sorted(name for name in sys.modules if name.split('.')[:2] == ['numpy', 'ma']))\n"
    ), str(tmp_path / "trace.csv"))
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "[]\n")


def test_trace_validation_names_the_frame():
    rows = flat_rows(10, 4)
    rows[2][3] = 2000
    with pytest.raises(FrameError, match="2000 outside") as caught:
        make_trace(rows, [R] * 4)
    assert caught.value.index == 2
    with pytest.raises(FrameError, match="not an integer") as caught:
        make_trace([[1, 2, 3, 4, 5], [1, 2, 3.5, 4, 5]], [R, R])
    assert caught.value.index == 1
    with pytest.raises(FrameError, match="increasing") as caught:
        LabeledTrace(
            t_rel=[0.0, 0.02, 0.02], t_unix=[0.0] * 3, channels=flat_rows(0, 3), labels=[R] * 3
        )
    assert caught.value.index == 2
    with pytest.raises(FrameError, match="t_unix") as caught:
        LabeledTrace(t_rel=[0.0], t_unix=[float("nan")], channels=[[0] * 5], labels=[R])
    assert caught.value.index == 0
    # a label that is not a GestureLabel, even one that names a member
    for bad in ("relax", 0, None, [R]):
        message = re.escape(f"label must be a GestureLabel, got {bad!r}")
        with pytest.raises(FrameError, match=message) as caught:
            make_trace(flat_rows(10, 3), [R, R, bad])
        assert caught.value.index == 2


@pytest.mark.parametrize("faults", [
    (),
    ((2, 3, 1024),),
    ((1, 4, -1), (2, 0, 5000)),
    ((4, 2, 30000), (4, 1, 1024)),
], ids=["valid", "1024", "-1_first", "two_in_a_row"])
def test_integer_and_float_channels_are_checked_alike(faults):
    # an integer dtype skips the integral test; the checks must still agree
    rows = np.random.default_rng(0).integers(0, 1024, size=(6, 5))
    for row, col, value in faults:
        rows[row, col] = value
    for dtype in (np.int64, np.int32, np.int16, np.uint16, np.float64, np.float32):
        if np.any(rows != rows.astype(dtype)):
            continue  # uint16 cannot hold -1
        channels = rows.astype(dtype)
        if not faults:
            trace = make_trace(channels, [R] * 6)
            assert trace.channels.dtype == np.int64
            assert np.array_equal(trace.channels, rows)
            continue
        row, col, value = min(faults)
        # the value is spelled as its dtype gives it: 1024 or 1024.0
        value = float(value) if channels.dtype.kind == "f" else value
        with pytest.raises(FrameError) as caught:
            make_trace(channels, [R] * 6)
        assert caught.value.index == row
        assert caught.value.reason == f"channel value {value} outside [0, 1023]"


@pytest.mark.parametrize("value, message", [
    (float("nan"), "channel value is not an integer: nan"),
    (2.5, "channel value is not an integer: 2.5"),
    (float("inf"), "channel value inf outside [0, 1023]"),
    (-0.5, "channel value is not an integer: -0.5"),
])
def test_float_channels_name_their_first_bad_value(value, message):
    rows = np.full((3, 5), 7.0)
    rows[1, 2] = value
    rows[2, 0] = 2000.0
    with pytest.raises(FrameError) as caught:
        make_trace(rows, [R] * 3)
    assert caught.value.index == 1
    assert caught.value.reason == message


def test_trace_columns_are_read_only_copies():
    rows = np.array(flat_rows(10, 3))
    trace = make_trace(rows, [R, E, R])
    rows[0, 0] = 99  # the caller's array stays theirs
    assert trace.channels[0, 0] == 10
    for column in (trace.t_rel, trace.t_unix, trace.channels, trace.labels):
        with pytest.raises(ValueError):
            column[0] = 1
    assert trace.channels.dtype == np.int64 and trace.channels.shape == (3, 5)
    assert trace.labels.dtype == np.int8 and trace.labels.tolist() == [0, 1, 0]
    codes = np.array([0, 1, 0])
    trace = make_trace(flat_rows(10, 3), codes)
    codes[0] = 4
    assert members(trace.labels) == [R, E, R]


def test_frames_view():
    trace = make_trace([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]], [R, E, F])
    first, second, third = trace.frames
    assert second == SensorFrame(t_rel=0.02, t_unix=0.02, channels=(6, 7, 8, 9, 10))
    assert third.channels == (11, 12, 13, 14, 15)
    frames = trace.frames
    assert next(frames) == first
    assert list(frames) == [second, third]  # a pass resumes where it stopped
    assert list(trace.frames) == [first, second, third]  # each access is a new pass
    assert list(LabeledTrace().frames) == []


def test_frames_across_row_blocks_match_the_arrays():
    n = 2 * ROW_BLOCK + 1
    rng = np.random.default_rng(5)
    t_rel = np.arange(n) * 0.02
    trace = LabeledTrace(
        t_rel=t_rel, t_unix=1.6e9 + t_rel, channels=rng.integers(0, 1024, size=(n, 5)),
        labels=(R,) * n,
    )
    expected = [
        SensorFrame(trace.t_rel[i], trace.t_unix[i], trace.channels[i]) for i in range(n)
    ]
    frames = trace.frames
    assert next(frames) == expected[0]
    assert list(trace.frames) == expected  # a second access starts again at row 0
    assert list(frames) == expected[1:]
    assert all(type(f.t_rel) is float and type(f.t_unix) is float for f in trace.frames)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_frames_equal_checked_frames_of_the_same_rows(n, dtype):
    # trace.frames builds its frames without SensorFrame's check; the
    # checked constructor, fed the same rows as Python values, is the oracle
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 1024, size=(n, 5)).tolist()
    if n:
        rows[0] = [0, 1023, 0, 1023, 512]
    t_rel = [i * 0.02 for i in range(n)]  # starts at 0.0
    t_unix = [1.6e9 + t for t in t_rel]
    trace = LabeledTrace(
        t_rel=t_rel, t_unix=t_unix, channels=np.array(rows, dtype=dtype).reshape(n, 5),
        labels=(R,) * n,
    )
    frames = list(trace.frames)
    assert len(frames) == n
    for frame, t, u, row in zip(frames, t_rel, t_unix, rows):
        expected = SensorFrame(t_rel=t, t_unix=u, channels=row)
        assert frame == expected and hash(frame) == hash(expected)
        assert type(frame.t_rel) is float and type(frame.t_unix) is float
        assert type(frame.channels) is tuple
        assert set(map(type, frame.channels)) == {int}
    if n:
        assert frames[0].t_rel == 0.0 and frames[0].channels == (0, 1023, 0, 1023, 512)
        for name in ("t_rel", "t_unix", "channels"):
            with pytest.raises(FrozenInstanceError):
                setattr(frames[-1], name, getattr(frames[0], name))


def test_segment_examples():
    trace = make_trace(flat_rows(10, 6), [R, R, E, E, E, R])
    assert segment_trace(trace) == [(R, 0, 2), (E, 2, 5), (R, 5, 6)]

    trace = make_trace(flat_rows(10, 1), [R])
    assert segment_trace(trace) == [(R, 0, 1)]

    trace = make_trace(flat_rows(10, 5), [R, T, E, T, R])
    assert segment_trace(trace) == [(R, 0, 1), (T, 1, 2), (E, 2, 3), (T, 3, 4), (R, 4, 5)]


def test_segment_empty_trace():
    with pytest.raises(ValueError, match="empty"):
        segment_trace(LabeledTrace())


@given(st.lists(st.sampled_from(ALL_LABELS), min_size=1, max_size=60))
def test_segments_cover_trace(labels):
    trace = make_trace(flat_rows(100, len(labels)), labels)
    segments = segment_trace(trace)
    rebuilt = []
    cursor = 0
    for label, start, end in segments:
        assert start == cursor and end > start
        rebuilt.extend([label] * (end - start))
        cursor = end
    assert cursor == len(labels)
    assert rebuilt == labels
    # maximal runs: adjacent segments carry different labels
    for (a, _, _), (b, _, _) in zip(segments, segments[1:]):
        assert a != b


def reference_segments(labels) -> list:
    """The brute-force segmenter: a new segment wherever the label changes."""
    segments = []
    for i, label in enumerate(labels):
        if segments and segments[-1][0] is label:
            segments[-1][2] = i + 1
        else:
            segments.append([label, i, i + 1])
    return [tuple(segment) for segment in segments]


@given(st.lists(st.sampled_from(ALL_LABELS), min_size=1, max_size=80))
def test_segment_trace_matches_brute_force_loop(labels):
    trace = make_trace(flat_rows(100, len(labels)), labels)
    segments = segment_trace(trace)
    assert segments == reference_segments(labels)
    assert all(type(start) is int and type(end) is int for _, start, end in segments)


# --- labels as class indices: a trace built from an integer array of class
# indices equals the trace built from the members they stand for, and each
# batch stage gives on it what it gives on members ---

_INT_DTYPES = [np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64, np.intp]


@st.composite
def label_runs(draw, max_runs=12):
    """Labels in runs of 1-40 of one member; adjacent runs may repeat one."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(ALL_LABELS), st.integers(1, 40)), max_size=max_runs
    ))
    return [label for label, length in runs for _ in range(length)]


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(100))
@given(label_runs(), st.sampled_from(_INT_DTYPES))
def test_trace_from_codes_equals_trace_from_members(labels, dtype):
    codes = np.array([CLASS_INDEX[label] for label in labels], dtype=dtype)
    from_members = make_trace(flat_rows(7, len(labels)), labels)
    from_codes = make_trace(flat_rows(7, len(labels)), codes)
    assert from_codes == from_members
    for trace in (from_members, from_codes):
        assert trace.labels.dtype == np.int8 and not trace.labels.flags.writeable
        assert members(trace.labels) == labels
    assert label_codes(codes).tolist() == label_codes(iter(labels)).tolist()
    assert make_trace(flat_rows(7, len(labels)), np.array(labels, dtype=object)) == from_members


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(100))
@given(label_runs().filter(bool), st.sampled_from(_INT_DTYPES))
def test_segment_trace_on_codes_matches_brute_force_loop(labels, dtype):
    codes = np.array([CLASS_INDEX[label] for label in labels], dtype=dtype)
    segments = segment_trace(make_trace(flat_rows(100, len(labels)), codes))
    assert segments == reference_segments(labels)
    assert all(type(start) is int and type(end) is int for _, start, end in segments)
    assert all(type(label) is GestureLabel for label, _, _ in segments)


def _bad_label_cases():
    """(labels, bad row, message) for labels with one bad row or a bad dtype."""
    n = st.integers(1, 30)

    def with_bad_code(args):
        (n, row, dtype), value = args
        codes = np.zeros(n, dtype=dtype)
        codes[row % n] = value
        return codes, row % n, f"class index {value} outside [0, 5)"

    bad_code = st.tuples(
        st.tuples(n, st.integers(0, 29), st.sampled_from([np.int16, np.int32, np.int64])),
        st.sampled_from([-1, 5, 300, -129, 2**15 - 1]),
    ).map(with_bad_code)
    bad_dtype = st.tuples(n, st.sampled_from([bool, np.float64, np.float32])).map(
        lambda args: (np.zeros(args[0], dtype=args[1]), 0,
                      f"labels must be class indices, got dtype {np.dtype(args[1])}")
    )

    def with_bad_member(args):
        n, row, bad = args
        labels = [R] * n
        labels[row % n] = bad
        return labels, row % n, f"label must be a GestureLabel, got {bad!r}"

    bad_member = st.tuples(
        n, st.integers(0, 29), st.sampled_from(["relax", 0, 4, np.int8(1), None, True, 1.0])
    ).map(with_bad_member)
    a_str = st.sampled_from(["relax", "EXTEND"]).map(
        lambda text: (text, 0, f"label must be a GestureLabel, got {text[0]!r}")
    )
    return st.one_of(bad_code, bad_dtype, bad_member, a_str)


@pytest.mark.oracle
@settings(deadline=None, max_examples=oracle_examples(100))
@given(_bad_label_cases())
def test_bad_labels_raise_naming_their_row(case):
    labels, row, message = case
    message = f"^{re.escape(f'row {row}: {message}')}$"
    with pytest.raises(FrameError, match=message) as caught:
        label_codes(labels)
    assert caught.value.index == row
    with pytest.raises(FrameError, match=message) as caught:
        make_trace(flat_rows(0, len(labels)), labels)
    assert caught.value.index == row


def test_label_codes_refuse_an_array_that_is_not_one_dimensional():
    with pytest.raises(ValueError, match=r"^labels must be one-dimensional, got shape \(1, 2\)$"):
        label_codes(np.zeros((1, 2), dtype=np.int8))


def test_label_codes_take_empty_input_of_any_dtype():
    for empty in ((), [], np.array([]), np.array([], dtype=bool), np.array([], dtype=np.int64)):
        codes = label_codes(empty)
        assert codes.dtype == np.int8 and codes.shape == (0,) and not codes.flags.writeable


def test_class_labels_index_the_codes():
    assert [CLASS_INDEX[label] for label in CLASS_LABELS] == list(range(len(CLASS_LABELS)))
    assert label_codes(CLASS_LABELS).tolist() == list(range(len(CLASS_LABELS)))


def _zeros_with(shape, row, value):
    """Zeros of `shape` with `value` at (row, 2)."""
    x = np.zeros(shape)
    x[row, 2] = value
    return x


_MLP_CFG = mlp.MlpConfig(hidden=(3,), output_dim=2, epochs=1)
_MLP_MODEL = mlp.init_model(_MLP_CFG, np.random.default_rng(0))
_TWO_CLASSES = np.array([0, 1, 0, 1])


@pytest.mark.parametrize("refuse, index, reason", [
    pytest.param(
        lambda: LabeledTrace([0.0, 0.02, 0.01], [0.0] * 3, flat_rows(0, 3), [R] * 3),
        2, "t_rel must be strictly increasing (0.02 -> 0.01)", id="LabeledTrace",
    ),
    pytest.param(
        lambda: label_codes([R, E, "fist"]),
        2, "label must be a GestureLabel, got 'fist'", id="label_codes",
    ),
    pytest.param(
        lambda: confusion(np.array([0, 1, 7]), np.array([0, 1, 1])),
        2, "class index 7 outside [0, 5)", id="confusion",
    ),
    pytest.param(
        lambda: write_label_file([0.0, 0.02, 0.04], [R, None, E], io.StringIO()),
        1, "label must be a GestureLabel, got None", id="write_label_file",
    ),
    pytest.param(
        lambda: batch_baselines([0.0, 0.1, float("nan")], np.zeros((3, 5))),
        2, "non-finite timestamp nan", id="batch_baselines_non_finite",
    ),
    pytest.param(
        lambda: batch_baselines([0.0, 0.2, 0.1, 0.3], np.zeros((4, 5))),
        2, "non-monotonic timestamp: 0.1 after 0.2", id="batch_baselines_backward",
    ),
    pytest.param(
        lambda: mlp.train(_zeros_with((4, 5), 1, np.nan), _TWO_CLASSES, _MLP_CFG),
        1, "non-finite value in training features", id="train_training_rows",
    ),
    pytest.param(
        lambda: mlp.train(np.zeros((4, 5)), _TWO_CLASSES, _MLP_CFG,
                          validation=(_zeros_with((4, 5), 3, np.inf), _TWO_CLASSES)),
        3, "non-finite value in validation features", id="train_validation_rows",
    ),
    pytest.param(
        lambda: mlp.one_hot(np.array([0, 1, 2]), 2),
        2, "class index 2 outside [0, 2)", id="one_hot",
    ),
    pytest.param(
        lambda: mlp.write_labels_csv(np.array([0, -1]), io.StringIO()),
        1, "not a class index: -1", id="write_labels_csv",
    ),
    pytest.param(
        lambda: mlp.predict_labels(_MLP_MODEL, _zeros_with((1, 5), 0, np.nan)),
        0, "non-finite feature value", id="predict_labels_one_row",
    ),
    pytest.param(
        lambda: mlp.predict_labels(_MLP_MODEL, _zeros_with((3, 5), 1, -np.inf)),
        1, "non-finite feature value", id="predict_labels_batch",
    ),
])
def test_row_refusals_are_frame_errors_naming_their_row(refuse, index, reason):
    with pytest.raises(FrameError) as caught:
        refuse()
    assert (caught.value.index, caught.value.reason) == (index, reason)
    assert str(caught.value) == f"row {index}: {reason}"
