import copy
import pickle
import re
import statistics
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, R, T, flat_rows, make_trace, run_python
from lightband.types import (
    LABEL_TEXT,
    ROW_BLOCK,
    FrameError,
    GestureLabel,
    LabeledTrace,
    SensorFrame,
    _check_intensity,
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
    with pytest.raises(ValueError, match="^channel value is not an integer: inf$"):
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
        message = f"^frame spacing {step} outside 50% of the median step 1.0$"
        with pytest.raises(FrameError, match=message) as caught:
            LabeledTrace(t_rel, t_rel, flat_rows(0, len(t_rel)), [R] * len(t_rel))
        assert caught.value.index == row
    # within 50% of the median, and any spacing of two frames, passes
    for t_rel in ([0, 1, 2, 3.5, 4.5], [0, 1, 2, 2.5, 3.5], [0.0, 7.0]):
        LabeledTrace(t_rel, t_rel, flat_rows(0, len(t_rel)), [R] * len(t_rel))
    # the increasing check is a pass of its own: a later repeat is reported
    # before an earlier spacing fault
    t_rel = [0, 1, 3, 4, 4]
    message = r"^t_rel must be strictly increasing \(4.0 -> 4.0\)$"
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
        assert (exc.index, str(exc)) == want
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


def test_trace_columns_are_read_only_copies():
    rows = np.array(flat_rows(10, 3))
    trace = make_trace(rows, [R, E, R])
    rows[0, 0] = 99  # the caller's array stays theirs
    assert trace.channels[0, 0] == 10
    for column in (trace.t_rel, trace.t_unix, trace.channels):
        with pytest.raises(ValueError):
            column[0] = 1
    assert trace.channels.dtype == np.int64 and trace.channels.shape == (3, 5)


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
