"""Signature learning and tolerance-match gesture classification.

A signature is the mean intensity change (gesture plateau minus the
preceding relax plateau) per gesture and sensor. Classification compares
each frame's baseline deltas against the signatures: a gesture matches only
if every active sensor lands within the tolerance band around its signature
value, and a freshly changed label is smoothed to TRANSITION.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .baseline import BaselineConfig, BaselineTracker
from .ingest import numbered_rows, open_text, text_lines
from .types import (
    CLASS_INDEX,
    CLASS_LABELS,
    GESTURES,
    LABEL_TEXT,
    NUM_CHANNELS,
    GestureLabel,
    LabeledTrace,
    SensorFrame,
    label_codes,
    parse_label,
    segment_trace,
)
from .types import check_settings, int_setting, real_setting, tuple_setting

DEFAULT_ACTIVE_SENSORS = (2, 3, 4)  # 1-based; the short fibers react the most
MIN_SEGMENT_FRAMES = 5

SIGNATURE_CSV_HEADER = "gesture,sensor,delta"


def check_active_sensors(active) -> tuple:
    """Active sensors as a tuple of distinct 1-based int indices in 1..5."""
    active = tuple_setting("sensor index", active, int_setting)
    for sensor in active:
        if not 1 <= sensor <= NUM_CHANNELS:
            raise ValueError(f"sensor index {sensor} outside 1..{NUM_CHANNELS}")
    if len(set(active)) != len(active):
        raise ValueError(f"sensor indices repeat in {active}")
    return active


def check_entry(gesture, sensor, delta) -> tuple:
    """The ((gesture, sensor), delta) pair a SignatureTable holds for an entry,
    with its sensor and delta as the setting rules store them; refuses an
    entry that no table holds."""
    if gesture not in GESTURES:
        raise ValueError(f"{gesture} cannot carry a signature")
    (sensor,) = check_active_sensors((sensor,))
    return (gesture, sensor), real_setting(f"delta for ({gesture}, sensor {sensor})", delta)


@dataclass(frozen=True)
class SignatureTable:
    """Per-(gesture, sensor) intensity deltas; the sensors they name, sorted,
    are the active sensors, and each gesture present needs all of them.

    Deltas are signed: negative means the sensor dips below the relax
    baseline during the gesture. The table keeps a read-only copy of the
    deltas in (gesture, sensor) order, so it is immutable once built, safe
    to share, hashable, equal to the table read back from its file, and
    written and printed in that order without a sort. rows holds (gesture,
    signatures in active-sensor order) for each gesture present, in
    GESTURES order: what classify_frame walks on every frame.
    """

    deltas: dict  # (GestureLabel, sensor index 1..5) -> float; kept read-only
    active_sensors: tuple = field(init=False)
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            deltas = dict(check_entry(*key, delta) for key, delta in dict(self.deltas).items())
        except TypeError:
            raise ValueError(
                f"deltas must be a (gesture, sensor) mapping, got {self.deltas!r}"
            ) from None
        ordered = sorted(deltas, key=lambda key: (CLASS_INDEX[key[0]], key[1]))
        object.__setattr__(self, "deltas", MappingProxyType({k: deltas[k] for k in ordered}))
        object.__setattr__(self, "active_sensors", tuple(sorted({s for _, s in deltas})))
        present = {g for g, _ in self.deltas}
        rows = []
        for gesture in (g for g in GESTURES if g in present):
            for sensor in self.active_sensors:
                if (gesture, sensor) not in self.deltas:
                    raise ValueError(f"missing entry for ({gesture}, sensor {sensor})")
            sigs = tuple(self.deltas[(gesture, s)] for s in self.active_sensors)
            rows.append((gesture, sigs))
        object.__setattr__(self, "rows", tuple(rows))

    def __hash__(self) -> int:
        # the deltas are kept in (gesture, sensor) order, so equal tables
        # give the same items in the same order
        return hash(tuple(self.deltas.items()))


def generate_signatures(traces, active=DEFAULT_ACTIVE_SENSORS) -> SignatureTable:
    """Learn EXTEND, FIST and ONE signatures over the active sensors.

    For every gesture segment preceded by a RELAX segment (one intervening
    TRANSITION segment is skipped), the delta on each active sensor is the
    mean intensity of the gesture segment minus the mean of that relax
    segment. The signature is the average of these deltas over all such
    pairs. The table's sensors are the active ones, sorted.

    Raises ValueError if a gesture has no relax/gesture pair, or if a
    segment used by a pair is shorter than MIN_SEGMENT_FRAMES.
    """
    cols = [sensor - 1 for sensor in check_active_sensors(active)]
    sums = dict.fromkeys(GESTURES, 0.0)  # gesture -> summed delta vector
    counts = dict.fromkeys(GESTURES, 0)
    for trace in traces:
        segments = segment_trace(trace)
        for idx, (label, start, end) in enumerate(segments):
            if label not in GESTURES:
                continue
            prev = idx - 1
            if prev >= 0 and segments[prev][0] is GestureLabel.TRANSITION:
                prev -= 1
            if prev < 0 or segments[prev][0] is not GestureLabel.RELAX:
                continue
            _, r_start, r_end = segments[prev]
            for name, seg_len in (("relax", r_end - r_start), (label.name, end - start)):
                if seg_len < MIN_SEGMENT_FRAMES:
                    raise ValueError(
                        f"{name} segment of {seg_len} frames is shorter than "
                        f"{MIN_SEGMENT_FRAMES}"
                    )
            delta = _segment_means(trace, start, end, cols)
            delta -= _segment_means(trace, r_start, r_end, cols)
            sums[label] += delta
            counts[label] += 1
    deltas = {}
    for gesture, count in counts.items():
        if not count:
            raise ValueError(f"no relax/gesture pairs found for {gesture}")
        means = (sums[gesture] / count).tolist()
        deltas.update(((gesture, col + 1), mean) for col, mean in zip(cols, means))
    return SignatureTable(deltas)


def _segment_means(trace: LabeledTrace, start: int, end: int, cols: list) -> np.ndarray:
    # int64 sums are exact, so this equals adding the readings one at a time
    return trace.channels[start:end, cols].sum(axis=0) / (end - start)


@dataclass
class ClassifierState:
    """Streaming classifier state: tolerance plus recent raw-label history.

    Raw (pre-smoothing) labels feed the history, so a genuine new gesture
    surfaces after exactly transition_horizon stable readings. A state
    starts with an empty history; only classifying fills it.
    """

    tolerance: float = 0.10
    transition_horizon: int = 10
    recent_labels: deque = field(init=False)
    # the session's (active sensors, BaselineConfig, BaselineTracker)
    _baseline: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_settings(self, ints=("transition_horizon",), reals=("tolerance",))
        if self.tolerance < 0:
            raise ValueError(
                f"tolerance must be finite and non-negative, got {self.tolerance}"
            )
        horizon = self.transition_horizon
        if horizon < 1:
            raise ValueError(f"transition_horizon must be at least 1, got {horizon}")
        if horizon > sys.maxsize:  # the history deque's maxlen is a C ssize_t
            raise ValueError(f"transition_horizon must be at most {sys.maxsize}, got {horizon}")
        self.recent_labels = deque(maxlen=horizon)

    def _tracker(self, cfg: BaselineConfig, active: tuple) -> BaselineTracker:
        """The session's tracker; refused under another cfg or sensor set."""
        if self._baseline is None:
            self._baseline = (active, cfg, BaselineTracker(cfg))
        held, held_cfg, tracker = self._baseline
        if (held, held_cfg) != (active, cfg):
            raise ValueError(f"state continues a session of sensors {held} under {held_cfg}")
        return tracker


def classify_frame(
    frame: SensorFrame,
    baselines,
    table: SignatureTable,
    state: ClassifierState,
) -> GestureLabel:
    """Classify one frame given the current per-channel baselines.

    A gesture matches when, on every active sensor, the reading's delta from
    the baseline is within tolerance * |signature| of the signature value.
    Ties go to the gesture with the smallest mean relative error; no match
    means RELAX. If the raw label differs from any of the last
    transition_horizon raw labels the emitted label is TRANSITION, but the
    raw label still enters the history.
    """
    active = table.active_sensors
    deltas = [frame.channels[sensor - 1] - baselines[sensor - 1] for sensor in active]
    tolerance = state.tolerance
    best = None
    best_err = math.inf
    for gesture, sigs in table.rows:
        total_err = 0.0
        for delta, sig in zip(deltas, sigs):
            err = abs(delta - sig)
            if err > tolerance * abs(sig):
                break
            total_err += err / abs(sig) if sig != 0 else 0.0
        else:
            mean_err = total_err / len(active)
            if mean_err < best_err:
                best = gesture
                best_err = mean_err
    raw = best if best is not None else GestureLabel.RELAX
    recent = state.recent_labels
    emitted = raw if recent.count(raw) == len(recent) else GestureLabel.TRANSITION
    recent.append(raw)
    return emitted


def classify_trace(
    trace: LabeledTrace,
    table: SignatureTable,
    cfg: BaselineConfig = BaselineConfig(),
    state: ClassifierState = None,
) -> np.ndarray:
    """Baseline tracking plus classification over a whole trace at once.

    Returns the emitted labels as class indices, in the read-only array a
    trace holds its labels in (label_codes). They, and the raw-label
    history left in state (GestureLabel members), are exactly those of
    feeding the frames one at a time through BaselineTracker.update and
    classify_frame; that per-frame path is the reference the tests hold
    this one to. The state carries the session, raw history and baseline,
    across calls, so a trace classified in chunks gets the labels of one
    call; continuing it under another cfg or sensor set, or from before its
    last time, is a ValueError.
    """
    if state is None:
        state = ClassifierState()
    n = len(trace)
    cols = [sensor - 1 for sensor in table.active_sensors]
    readings = trace.channels[:, cols]
    deltas = state._tracker(cfg, table.active_sensors)._advance(trace.t_rel, readings, cols)
    np.subtract(readings, deltas, out=deltas)  # reading minus baseline, in place
    # raw label per frame, as a class index; RELAX when nothing matches
    raw = np.full(n, CLASS_INDEX[GestureLabel.RELAX])
    best_err = np.full(n, math.inf)
    for gesture, sigs in table.rows:
        matched = np.ones(n, dtype=bool)
        total_err = np.zeros(n)
        for delta, sig in zip(deltas.T, sigs):
            err = np.abs(delta - sig)
            matched &= err <= state.tolerance * abs(sig)
            if sig != 0:
                with np.errstate(over="ignore"):  # inf for a tiny |sig|, as per frame
                    total_err = total_err + err / abs(sig)
        mean_err = total_err / len(sigs)
        better = matched & (mean_err < best_err)
        raw[better] = CLASS_INDEX[gesture]
        best_err[better] = mean_err[better]
    # A frame is TRANSITION unless its raw label has held for the whole
    # history before it: the last transition_horizon raw labels, counting
    # those already in state.
    horizon = state.transition_horizon
    prior = [CLASS_INDEX[label] for label in state.recent_labels]
    history = np.concatenate([np.array(prior, dtype=raw.dtype), raw])
    changes = np.flatnonzero(history[1:] != history[:-1]) + 1
    run_start = np.zeros(len(history), dtype=np.int64)
    run_start[changes] = changes
    run_start = np.maximum.accumulate(run_start)[len(prior):]
    history_start = np.maximum(np.arange(len(prior), len(history)) - horizon, 0)
    emitted = np.where(run_start > history_start, CLASS_INDEX[GestureLabel.TRANSITION], raw)
    state.recent_labels.extend(map(CLASS_LABELS.__getitem__, raw[-horizon:].tolist()))
    return label_codes(emitted)


class Recognizer:
    """A signature-matching session, held in state: any mix of push and
    classify calls gives the labels of one classify_trace call."""

    def __init__(self, table: SignatureTable, cfg=BaselineConfig(), state=None):
        self.table, self.cfg = table, cfg
        self.state = ClassifierState() if state is None else state
        self._update = self.state._tracker(cfg, table.active_sensors).update

    def push(self, t_rel: float, values) -> GestureLabel:
        """The label of one reading: parse_serial_line's five ints at t_rel."""
        frame = SensorFrame(t_rel=t_rel, t_unix=t_rel, channels=values)
        return classify_frame(frame, self._update(frame), self.table, self.state)

    def classify(self, trace: LabeledTrace) -> np.ndarray:
        """classify_trace's labels of the trace, continuing the session."""
        return classify_trace(trace, self.table, self.cfg, self.state)

    @property
    def raw_label(self):
        """The last raw label, before TRANSITION smoothing; None before any."""
        return self.state.recent_labels[-1] if self.state.recent_labels else None


def write_signature_csv(table: SignatureTable, sink) -> None:
    """Write `gesture,sensor,delta` rows, full float precision."""
    with open_text(sink, "w") as out:
        out.write(SIGNATURE_CSV_HEADER + "\n" + "".join(
            f"{LABEL_TEXT[gesture]},{sensor},{delta!r}\n"
            for (gesture, sensor), delta in table.deltas.items()
        ))


def read_signature_csv(source) -> SignatureTable:
    """Read a signature table; an entry error names its 1-based line."""
    seen = set()

    def parse_row(line: str) -> tuple:
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != 3:
            raise ValueError(f"expected 3 fields, got {len(tokens)}")
        key, delta = check_entry(parse_label(tokens[0]), int(tokens[1]), float(tokens[2]))
        if key in seen:
            raise ValueError(f"duplicate entry for ({key[0]}, sensor {key[1]})")
        seen.add(key)
        return key, delta

    lines = text_lines(source)
    header = next(lines, None)
    if header is None:
        raise ValueError("missing or malformed signature header: empty input")
    if header.strip() != SIGNATURE_CSV_HEADER:
        raise ValueError(f"line 1: missing or malformed signature header: {header!r}")
    return SignatureTable(dict(row for _, row in numbered_rows(lines, parse_row, first=2)))
