"""Shared domain vocabulary: frames, gesture labels, and labeled traces."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

NUM_CHANNELS = 5
INTENSITY_MIN = 0
INTENSITY_MAX = 1023

# Rows handled at a time where a whole trace would make a large temporary:
# LabeledTrace.frames and the collection CSV and label file codecs convert
# this many between arrays and Python values or text, and synth_trace draws
# the standard normals of this many frames at once.
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


# The label <-> class index encoding of traces' label arrays, one-hot
# targets, network outputs and classify_trace's labels. CLASS_LABELS is
# indexed by class index; CLASS_INDEX inverts it.
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


def int_setting(name: str, value) -> int:
    """The integer rule for a numeric setting: a Python or numpy integer, never
    a bool, as the Python int it equals."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_setting(name: str, value):
    """The real-number rule for a numeric setting: a finite Python or numpy int
    or float, never a bool. A numpy scalar becomes the Python number it
    equals; a Python number is kept as given, so a saved config keeps its text."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, ±inf, or an int past the float range
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def tuple_setting(name: str, values, rule) -> tuple:
    """An iterable of settings as a tuple, each item through rule(name, item)."""
    try:
        return tuple(rule(name, value) for value in values)
    except TypeError:
        raise ValueError(f"{name} must be an iterable, got {values!r}") from None


def check_settings(config, ints=(), reals=()) -> None:
    """Hold each named field of a dataclass, frozen or not, to the integer or
    the real-number rule, and store the value the rule returns."""
    for names, rule in ((ints, int_setting), (reals, real_setting)):
        for name in names:
            object.__setattr__(config, name, rule(name, getattr(config, name)))


_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped reading of the five scaled light intensities."""

    t_rel: float  # seconds since trace start
    t_unix: float  # absolute seconds; carried through but never interpreted
    channels: tuple  # 5 intensities, each in [0, 1023]

    def __post_init__(self):
        t_rel, t_unix = self.t_rel, self.t_unix
        # two finite Python floats, t_rel non-negative, pass one check; any
        # other time goes to the real-number rule, which refuses a bool or a
        # non-number and stores a numpy time as the Python number it equals
        if not (type(t_rel) is float and type(t_unix) is float
                and 0.0 <= t_rel <= _FLOAT_MAX and -_FLOAT_MAX <= t_unix <= _FLOAT_MAX):
            t_rel = real_setting("t_rel", t_rel)
            if t_rel < 0:
                raise ValueError(f"t_rel must be finite and non-negative, got {t_rel}")
            object.__setattr__(self, "t_rel", t_rel)
            object.__setattr__(self, "t_unix", real_setting("t_unix", t_unix))
        channels = tuple(self.channels)
        if len(channels) != NUM_CHANNELS:
            raise ValueError(f"expected {NUM_CHANNELS} channels, got {len(channels)}")
        # plain ints, as parse_serial_line gives, are kept as they are; any
        # other value goes through the integer rule first, then every value
        # through the range check (trace.frames builds its frames without
        # these checks: the trace checked its arrays once)
        if set(map(type, channels)) != {int}:
            channels = tuple(int_setting("channel value", v) for v in channels)
        if not (INTENSITY_MIN <= min(channels) and max(channels) <= INTENSITY_MAX):
            bad = next(v for v in channels if not INTENSITY_MIN <= v <= INTENSITY_MAX)
            raise ValueError(f"channel value {bad} outside [{INTENSITY_MIN}, {INTENSITY_MAX}]")
        object.__setattr__(self, "channels", channels)


class FrameError(ValueError):
    """A refusal pinned to one row of an input, counted from 0: its text is
    "row {index}: {reason}", and it keeps both parts.

    Readers catch it to name the input line that row came from instead.
    """

    def __init__(self, index: int, reason: str):
        super().__init__(f"row {index}: {reason}")
        self.index = index
        self.reason = reason


def _reject_first(bad: np.ndarray, reason) -> None:
    """Raise FrameError for the first flagged row; reason(row) describes it."""
    if bad.any():
        row = int(np.argmax(bad))
        raise FrameError(row, reason(row))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def label_codes(labels, classes: int = len(CLASS_LABELS)) -> np.ndarray:
    """Labels as a new read-only 1-D int8 array of class indices.

    labels is either a numpy integer array of class indices or a non-array
    iterable of GestureLabel members; either is range-checked before it is
    narrowed. Anything else in it raises FrameError at the first bad row:
    an index outside [0, classes), a non-member in the iterable, or, for an
    array of another dtype (bool, float or object), row 0. classes is a
    count of the gesture classes, from 1 to len(CLASS_LABELS).
    """
    if not 0 < classes <= len(CLASS_LABELS):
        raise ValueError(f"classes must be in [1, {len(CLASS_LABELS)}], got {classes}")
    if not isinstance(labels, np.ndarray):
        labels = tuple(labels)
        if not {GestureLabel}.issuperset(map(type, labels)):
            row = next(i for i, label in enumerate(labels) if type(label) is not GestureLabel)
            raise FrameError(row, f"label must be a GestureLabel, got {labels[row]!r}")
        labels = np.fromiter(map(CLASS_INDEX.__getitem__, labels), dtype=np.int8, count=len(labels))
    elif labels.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
    elif labels.dtype.kind not in "iu" and len(labels):
        raise FrameError(0, f"labels must be class indices, got dtype {labels.dtype}")
    _reject_first(
        (labels < 0) | (labels >= classes),
        lambda row: f"class index {labels[row]} outside [0, {classes})",
    )
    return _read_only(labels.astype(np.int8))


def _time_column(values, name: str) -> np.ndarray:
    column = np.asarray(values)
    if column.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be int or float times, got dtype {column.dtype}")
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
    return _read_only(column.astype(np.float64))


def _intensity_matrix(values) -> np.ndarray:
    raw = np.asarray(values)
    if raw.size == 0:
        raw = raw.reshape(0, NUM_CHANNELS)
    if raw.ndim != 2 or raw.shape[1] != NUM_CHANNELS:
        raise ValueError(f"expected {NUM_CHANNELS} channels per frame, got shape {raw.shape}")
    if raw.dtype.kind not in "iu" and raw.size:  # an empty array holds no value to refuse
        raise ValueError(f"channel values must be integers, got dtype {raw.dtype}")
    valid = (raw >= INTENSITY_MIN) & (raw <= INTENSITY_MAX)
    if not valid.all():  # reduce by row only to find the first bad one
        _reject_first(
            ~valid.all(axis=1),
            lambda row: f"channel value {raw[row, np.argmin(valid[row])]} "
                        f"outside [{INTENSITY_MIN}, {INTENSITY_MAX}]",
        )
    return _read_only(raw.astype(np.int64))


@dataclass(frozen=True, eq=False)
class LabeledTrace:
    """A trace held as columns: N timestamps, N x 5 intensities, N labels.

    The arrays are read-only copies, validated once for the whole trace.
    Times must be int or float arrays, intensities an integer array, and
    labels as label_codes takes them: another dtype is a ValueError, raised
    before any value is read. Then finite non-negative, strictly increasing
    t_rel whose every step lies within 50% of the median step, finite
    t_unix and intensities in [0, 1023]. A failure tied to one frame
    raises FrameError with that frame's row.
    `frames` yields SensorFrames for code that walks readings one at a time.
    """

    t_rel: np.ndarray = ()  # (N,) float64 seconds since trace start
    t_unix: np.ndarray = ()  # (N,) float64 absolute seconds; carried, never interpreted
    channels: np.ndarray = ()  # (N, 5) int64 intensities
    labels: np.ndarray = ()  # (N,) int8 class indices; CLASS_LABELS[i] is the label

    def __post_init__(self):
        t_rel = _time_column(self.t_rel, "t_rel")
        t_unix = _time_column(self.t_unix, "t_unix")
        channels = _intensity_matrix(self.channels)
        labels = label_codes(self.labels)
        lengths = (len(t_rel), len(t_unix), len(channels), len(labels))
        if len(set(lengths)) != 1:
            raise ValueError(
                f"t_rel, t_unix, channels and labels differ in length: {lengths}"
            )
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
        for name, value in (
            ("t_rel", t_rel), ("t_unix", t_unix), ("channels", channels), ("labels", labels)
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledTrace):
            return NotImplemented
        return (
            np.array_equal(self.labels, other.labels)
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

    Returns (GestureLabel, start_index, end_index) triples with end
    exclusive, covering every index exactly once, in trace order.
    """
    codes = trace.labels
    if len(codes) == 0:
        raise ValueError("cannot segment an empty trace")
    edges = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
    runs = map(CLASS_LABELS.__getitem__, codes[edges[:-1]].tolist())
    return list(zip(runs, edges, edges[1:]))
