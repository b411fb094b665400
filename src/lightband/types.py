"""Shared domain vocabulary: frames, gesture labels, and labeled traces."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

NUM_CHANNELS = 5
INTENSITY_MIN = 0
INTENSITY_MAX = 1023

# Canonical sample spacing of the sensor stream (seconds).
DEFAULT_SAMPLE_INTERVAL = 0.02

# Rows converted between arrays and Python values or text at a time: by
# LabeledTrace.rows() and by the collection CSV and label file codecs.
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

# Row/column order of scoreable classes in confusion matrices.
SCOREABLE_CLASSES = (
    GestureLabel.RELAX,
    GestureLabel.EXTEND,
    GestureLabel.FIST,
    GestureLabel.ONE,
)

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
    except (TypeError, ValueError):
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
        object.__setattr__(self, "channels", tuple(_check_intensity(v) for v in channels))


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
    finite non-negative t_rel spaced within 50% of sample_interval, finite
    t_unix, integer intensities in [0, 1023], and GestureLabel labels. A
    failure tied to one frame raises FrameError with that frame's row.
    `frames` is a per-frame view for code that walks readings one at a time.
    """

    t_rel: np.ndarray = ()  # (N,) float64 seconds since trace start
    t_unix: np.ndarray = ()  # (N,) float64 absolute seconds; carried, never interpreted
    channels: np.ndarray = ()  # (N, 5) int64 intensities
    labels: tuple = ()
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL

    def __post_init__(self):
        interval = self.sample_interval
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"sample_interval must be finite and positive, got {interval}")
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
        dt = np.diff(t_rel)
        lo = 0.5 * interval * (1 - 1e-9)
        hi = 1.5 * interval * (1 + 1e-9)

        def describe(row):  # row is the later frame of the offending pair
            if dt[row - 1] <= 0:
                return f"t_rel must be strictly increasing ({t_rel[row - 1]} -> {t_rel[row]})"
            return f"frame spacing {dt[row - 1]} outside 50% of sample_interval {interval}"

        _reject_first(np.concatenate(([False], (dt <= 0) | (dt < lo) | (dt > hi))), describe)
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
            and self.sample_interval == other.sample_interval
            and np.array_equal(self.t_rel, other.t_rel)
            and np.array_equal(self.t_unix, other.t_unix)
            and np.array_equal(self.channels, other.channels)
        )

    def rows(self):
        """Yield (t_rel, t_unix, channel list, label) per frame as Python values.

        The arrays are converted a block of rows at a time, so a pass over
        the rows never holds Python objects for the whole trace at once.
        """
        for start in range(0, len(self), ROW_BLOCK):
            end = start + ROW_BLOCK
            yield from zip(
                self.t_rel[start:end].tolist(),
                self.t_unix[start:end].tolist(),
                self.channels[start:end].tolist(),
                self.labels[start:end],
            )

    @property
    def frames(self) -> "FrameView":
        """The trace as a read-only sequence of SensorFrames.

        For per-frame code such as the streaming baseline tracker and
        classifier; batch code reads the arrays.
        """
        return FrameView(self)


class FrameView(Sequence):
    """A trace's frames as SensorFrames, each built when it is reached.

    Iterating holds one frame at a time, never the whole trace as objects.
    Views compare equal to any sequence of equal frames.
    """

    def __init__(self, trace: LabeledTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        i = range(len(self))[index]  # IndexError past either end
        trace = self._trace
        return SensorFrame(
            float(trace.t_rel[i]), float(trace.t_unix[i]), trace.channels[i].tolist()
        )

    def __iter__(self):
        return (SensorFrame(t, u, c) for t, u, c, _ in self._trace.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))


def segment_trace(trace: LabeledTrace) -> list:
    """Split a trace into maximal runs of identical labels.

    Returns (label, start_index, end_index) triples with end exclusive,
    covering every index exactly once, in trace order.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("cannot segment an empty trace")
    labels = np.array(trace.labels, dtype=object)
    starts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()]
    return [(trace.labels[s], s, e) for s, e in zip(starts, starts[1:] + [n])]
