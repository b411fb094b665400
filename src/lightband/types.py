"""Shared domain vocabulary: frames, gesture labels, and labeled traces."""

from __future__ import annotations

import math
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


def _check_intensity(value) -> int:
    try:
        as_int = int(value)
    except OverflowError:  # ±inf, refused below as out of range, as the array check words it
        as_int = value
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
        # plain ints in range, as parse_serial_line gives, are kept as they
        # are; anything else is checked value by value (trace.frames builds
        # its frames without this check: the trace checked its arrays once)
        if not (set(map(type, channels)) == {int}
                and INTENSITY_MIN <= min(channels) and max(channels) <= INTENSITY_MAX):
            channels = tuple(_check_intensity(v) for v in channels)
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


def label_codes(labels) -> np.ndarray:
    """Labels as a new read-only 1-D int8 array of class indices.

    labels is either a numpy integer array of class indices, range-checked
    before it is narrowed, or an iterable of GestureLabel members (an
    object array too). Anything else in it raises FrameError at the first
    bad row: an index outside [0, len(CLASS_LABELS)), a non-member in the
    iterable, or, for an array of another dtype (bool or float), row 0.
    """
    if not isinstance(labels, np.ndarray) or labels.dtype.kind == "O":
        labels = tuple(labels)
        if not {GestureLabel}.issuperset(map(type, labels)):
            row = next(i for i, label in enumerate(labels) if type(label) is not GestureLabel)
            raise FrameError(row, f"label must be a GestureLabel, got {labels[row]!r}")
        return _read_only(np.fromiter(
            map(CLASS_INDEX.__getitem__, labels), dtype=np.int8, count=len(labels)
        ))
    if labels.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
    if labels.dtype.kind not in "iu" and len(labels):
        raise FrameError(0, f"labels must be class indices, got dtype {labels.dtype}")
    _reject_first(
        (labels < 0) | (labels >= len(CLASS_LABELS)),
        lambda row: f"class index {labels[row]} outside [0, {len(CLASS_LABELS)})",
    )
    return _read_only(labels.astype(np.int8))


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
    valid = (raw >= INTENSITY_MIN) & (raw <= INTENSITY_MAX)
    floats = raw.dtype.kind == "f"  # an integer dtype holds integers already
    if floats:
        valid &= raw == np.floor(raw)  # NaN fails this test, inf the range test

    def describe(row):
        value = raw[row, np.argmin(valid[row])]
        if floats and value != np.floor(value):
            return f"channel value is not an integer: {value.item()!r}"
        return f"channel value {value.item()} outside [{INTENSITY_MIN}, {INTENSITY_MAX}]"

    if not valid.all():  # reduce by row only to find the first bad one
        _reject_first(~valid.all(axis=1), describe)
    return _read_only(raw.astype(np.int64))


@dataclass(frozen=True, eq=False)
class LabeledTrace:
    """A trace held as columns: N timestamps, N x 5 intensities, N labels.

    The arrays are read-only copies, validated once for the whole trace:
    finite non-negative, strictly increasing t_rel whose every step lies
    within 50% of the median step, finite t_unix, integer intensities in
    [0, 1023], and labels given as GestureLabel members or class indices
    and held as class indices (label_codes). A failure tied to one frame
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
