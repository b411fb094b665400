import copy
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import E, F, R, T, flat_rows, make_trace
from lightband.types import (
    LABEL_TEXT,
    FrameError,
    GestureLabel,
    LabeledTrace,
    SensorFrame,
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


def test_trace_validation():
    with pytest.raises(ValueError, match="length"):
        make_trace(flat_rows(10, 3), [R, R])
    with pytest.raises(ValueError, match="increasing"):
        LabeledTrace(
            t_rel=[0.0, 0.0], t_unix=[0.0, 0.0], channels=flat_rows(0, 2), labels=[R, R],
            sample_interval=0.02,
        )
    # spacing more than 50% off the nominal interval
    with pytest.raises(ValueError, match="spacing"):
        LabeledTrace(
            t_rel=[0.0, 0.05], t_unix=[0.0, 0.0], channels=flat_rows(0, 2), labels=[R, R],
            sample_interval=0.02,
        )


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0, -0.02])
def test_sample_interval_must_be_finite_and_positive(interval):
    message = "sample_interval must be finite and positive"
    with pytest.raises(ValueError, match=message):
        LabeledTrace(sample_interval=interval)


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
    frames = trace.frames
    assert len(frames) == 3
    assert frames[1] == SensorFrame(t_rel=0.02, t_unix=0.02, channels=(6, 7, 8, 9, 10))
    assert frames[-1].channels == (11, 12, 13, 14, 15)
    assert frames[1:] == (frames[1], frames[2])
    assert list(frames) == [frames[0], frames[1], frames[2]]
    assert frames == tuple(frames) and frames == trace.frames
    assert frames != frames[:2]
    with pytest.raises(IndexError):
        frames[3]
    assert len(LabeledTrace().frames) == 0


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
