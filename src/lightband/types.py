"""Shared domain vocabulary: frames, gesture labels, and labeled traces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, groupby

import numpy as np

NUM_CHANNELS = 5
INTENSITY_MIN = 0
INTENSITY_MAX = 1023

# Rows converted between arrays and Python values or text at a time: by
# LabeledTrace.frames and by the collection CSV and label file codecs.
ROW_BLOCK = 2048


class GestureLabel(Enum):
    """The closed set of frame labels.

    RELAX is the resting hand, EXTEND/FIST/ONE are the recognized gestures,
    TRANSITION marks frames where the hand is moving between states.
    """

    RELAX = 0
    EXTEND = 1
    FIST = 2
    ONE = 3
    TRANSITION = 4

    # Members are singletons that compare by identity, so they can hash by
    # identity too: a C-level hash for every dict, set or Counter keyed by
    # label, where Enum.__hash__ is a Python call per lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.name


# The label <-> class index encoding of one-hot targets, network outputs
# and classify_trace's label arrays. CLASS_LABELS is indexed by class
# index; CLASS_INDEX inverts it.
CLASS_LABELS = tuple(GestureLabel)
CLASS_INDEX = {label: index for index, label in enumerate(CLASS_LABELS)}

# Gestures that carry a signature (everything except RELAX and TRANSITION).
GESTURES = (GestureLabel.EXTEND, GestureLabel.FIST, GestureLabel.ONE)

# Row/column order of scoreable classes in confusion matrices: every label
# but TRANSITION, in class-index order.
SCOREABLE_CLASSES = tuple(l for l in CLASS_LABELS if l is not GestureLabel.TRANSITION)

# A label's text in the collection CSV and the classify label file.
LABEL_TEXT = {label: label.name.lower() for label in GestureLabel}

_LABELS_BY_NAME = {label.name: label for label in GestureLabel}


def parse_label(text: str) -> GestureLabel:
    """Parse a label token, ignoring case and surrounding whitespace."""
    token = text.strip()
    label = _LABELS_BY_NAME.get(token.upper())
    if label is None:
        raise ValueError(f"unknown gesture label: {token!r}")
    return label


def _check_intensity(value) -> int:
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
        raise ValueError(f"channel value is not an integer: {value!r}") from None
    if as_int != value:
        raise ValueError(f"channel value is not an integer: {value!r}")
    if not INTENSITY_MIN <= as_int <= INTENSITY_MAX:
        raise ValueError(
            f"channel value {as_int} outside [{INTENSITY_MIN}, {INTENSITY_MAX}]"
        )
    return as_int


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped reading of the five scaled light intensities."""

    t_rel: float  # seconds since trace start
    t_unix: float  # absolute seconds; carried through but never interpreted
    channels: tuple  # 5 intensities, each in [0, 1023]

    def __post_init__(self):
        if not math.isfinite(self.t_rel) or self.t_rel < 0:
            raise ValueError(f"t_rel must be finite and non-negative, got {self.t_rel}")
        if not math.isfinite(self.t_unix):
            raise ValueError(f"t_unix must be finite, got {self.t_unix}")
        channels = tuple(self.channels)
        if len(channels) != NUM_CHANNELS:
            raise ValueError(f"expected {NUM_CHANNELS} channels, got {len(channels)}")
        # plain ints in range, as parse_serial_line gives, are kept as they
        # are; anything else is checked value by value (trace.frames builds
        # its frames without this check: the trace checked its arrays once)
        if not (set(map(type, channels)) == {int}
                and INTENSITY_MIN <= min(channels) and max(channels) <= INTENSITY_MAX):
            channels = tuple(_check_intensity(v) for v in channels)
        object.__setattr__(self, "channels", channels)


class FrameError(ValueError):
    """A trace validation failure pinned to one frame, at row `index`.

    Readers catch it to name the input line that frame came from.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise FrameError for the first flagged row; message(row) describes it."""
    if bad.any():
        row = int(np.argmax(bad))
        raise FrameError(row, message(row))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _time_column(values, name: str) -> np.ndarray:
    column = np.array(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
    return _read_only(column)


def _intensity_matrix(values) -> np.ndarray:
    raw = np.asarray(values)
    if raw.size == 0:
        raw = raw.reshape(0, NUM_CHANNELS)
    if raw.ndim != 2 or raw.shape[1] != NUM_CHANNELS:
        raise ValueError(f"expected {NUM_CHANNELS} channels per frame, got shape {raw.shape}")
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"channel values must be integers, got dtype {raw.dtype}")
    integral = raw == np.floor(raw)  # NaN fails this test, inf the range test
    in_range = (raw >= INTENSITY_MIN) & (raw <= INTENSITY_MAX)

    def describe(row):
        col = int(np.argmin(integral[row] & in_range[row]))
        value = raw[row, col].item()
        if not integral[row, col]:
            return f"channel value is not an integer: {value!r}"
        return f"channel value {value} outside [{INTENSITY_MIN}, {INTENSITY_MAX}]"

    _reject_first(~(integral & in_range).all(axis=1), describe)
    return _read_only(raw.astype(np.int64))


@dataclass(frozen=True, eq=False)
class LabeledTrace:
    """A trace held as columns: N timestamps, N x 5 intensities, N labels.

    The arrays are read-only copies, validated once for the whole trace:
    finite non-negative, strictly increasing t_rel whose every step lies
    within 50% of the median step, finite t_unix, integer intensities in
    [0, 1023], and GestureLabel labels. A failure tied to one frame raises
    FrameError with that frame's row.
    `frames` yields SensorFrames for code that walks readings one at a time.
    """

    t_rel: np.ndarray = ()  # (N,) float64 seconds since trace start
    t_unix: np.ndarray = ()  # (N,) float64 absolute seconds; carried, never interpreted
    channels: np.ndarray = ()  # (N, 5) int64 intensities
    labels: tuple = ()

    def __post_init__(self):
        t_rel = _time_column(self.t_rel, "t_rel")
        t_unix = _time_column(self.t_unix, "t_unix")
        channels = _intensity_matrix(self.channels)
        labels = tuple(self.labels)
        lengths = (len(t_rel), len(t_unix), len(channels), len(labels))
        if len(set(lengths)) != 1:
            raise ValueError(
                f"t_rel, t_unix, channels and labels differ in length: {lengths}"
            )
        if not {GestureLabel}.issuperset(map(type, labels)):
            row = next(i for i, label in enumerate(labels) if type(label) is not GestureLabel)
            raise FrameError(row, f"label must be a GestureLabel, got {labels[row]!r}")
        _reject_first(
            ~(np.isfinite(t_rel) & (t_rel >= 0)),
            lambda row: f"t_rel must be finite and non-negative, got {t_rel[row]}",
        )
        _reject_first(
            ~np.isfinite(t_unix), lambda row: f"t_unix must be finite, got {t_unix[row]}"
        )
        # each check flags the later frame of the offending pair
        dt = np.diff(t_rel)
        _reject_first(
            np.concatenate(([False], dt <= 0)),
            lambda row: f"t_rel must be strictly increasing ({t_rel[row - 1]} -> {t_rel[row]})",
        )
        if len(dt):
            # np.median's own arithmetic on np.partition; np.median imports numpy.ma
            half = len(dt) // 2
            mid = np.partition(dt, [(len(dt) - 1) // 2, half])
            median = float(mid[half] if len(dt) % 2 else (mid[half - 1] + mid[half]) / 2)
            lo = 0.5 * median * (1 - 1e-9)
            hi = 1.5 * median * (1 + 1e-9)
            _reject_first(
                np.concatenate(([False], (dt < lo) | (dt > hi))),
                lambda row: f"frame spacing {dt[row - 1]} outside 50% of the median step {median}",
            )
        for name, value in (("t_rel", t_rel), ("t_unix", t_unix), ("channels", channels)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledTrace):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.t_rel, other.t_rel)
            and np.array_equal(self.t_unix, other.t_unix)
            and np.array_equal(self.channels, other.channels)
        )

    @property
    def frames(self):
        """A new pass over the trace as SensorFrames, one frame at a time.

        For per-frame code such as the streaming baseline tracker and
        classifier; batch and random-access code reads the arrays. The
        arrays are converted a block of rows at a time, so a pass never
        holds Python objects for the whole trace at once. The trace checked
        its arrays once when it was built, so each frame is built from
        their floats and a tuple of their ints without SensorFrame's
        per-frame check, which could not fail here.
        """
        new, set_field = object.__new__, object.__setattr__
        for start in range(0, len(self), ROW_BLOCK):
            end = start + ROW_BLOCK
            for t_rel, t_unix, channels in zip(
                self.t_rel[start:end].tolist(),
                self.t_unix[start:end].tolist(),
                map(tuple, self.channels[start:end].tolist()),
            ):
                frame = new(SensorFrame)
                set_field(frame, "t_rel", t_rel)
                set_field(frame, "t_unix", t_unix)
                set_field(frame, "channels", channels)
                yield frame


def segment_trace(trace: LabeledTrace) -> list:
    """Split a trace into maximal runs of identical labels.

    Returns (label, start_index, end_index) triples with end exclusive,
    covering every index exactly once, in trace order.
    """
    if len(trace) == 0:
        raise ValueError("cannot segment an empty trace")
    runs = [(label, len(list(run))) for label, run in groupby(trace.labels)]
    ends = accumulate(length for _, length in runs)
    return [(label, end - length, end) for (label, length), end in zip(runs, ends)]
