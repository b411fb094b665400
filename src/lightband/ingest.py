"""Readers and writers for the device line protocol and the collection CSV.

The device emits ASCII lines of five comma-separated intensities. The
collection file is a CSV with a fixed 8-field header; its writer appends a
comma after every field, so data rows carry a trailing comma before the
newline. Both quirks are reproduced here so that files round-trip exactly.
"""

from __future__ import annotations

import os
import statistics
from contextlib import contextmanager
from typing import Iterable

from .types import (
    DEFAULT_SAMPLE_INTERVAL,
    GestureLabel,
    LabeledTrace,
    SensorFrame,
    parse_label,
)

COLLECTION_HEADER_FIELDS = (
    "delta Time",
    "Unix Time",
    "ldr1",
    "ldr2",
    "ldr3",
    "ldr4",
    "ldr5",
    "label",
)
COLLECTION_HEADER = "delta Time, Unix Time, ldr1, ldr2, ldr3, ldr4, ldr5, label"


def parse_serial_line(line: str) -> list:
    """Parse one device line into five intensity integers.

    Tolerates surrounding whitespace and a trailing carriage return. Raises
    ValueError on wrong field count, non-integer tokens, or out-of-range
    values.
    """
    tokens = line.strip().split(",")
    if len(tokens) != 5:
        raise ValueError(f"expected 5 comma-separated values, got {len(tokens)}")
    values = []
    for token in tokens:
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"non-integer sensor value: {token!r}") from None
        if not 0 <= value <= 1023:
            raise ValueError(f"sensor value {value} outside [0, 1023]")
        values.append(value)
    return values


@contextmanager
def open_text(target, mode: str = "r"):
    """Open a path as text with newline="", or pass a given stream through.

    Every reader and writer in the package goes through here, so each accepts
    either a path or an open text stream. A stream is yielded as is and left
    open for its owner to close.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline="") as handle:
            yield handle
    else:
        yield target


def read_collection_csv(source) -> LabeledTrace:
    """Read a collection CSV (path or open text stream) into a LabeledTrace.

    The first line must match the collection header field-for-field, ignoring
    whitespace around the fields. Each data row holds delta time, unix time,
    the five intensities, and a label; a trailing comma is tolerated.
    """
    with open_text(source) as lines:
        frames = []
        labels = []
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not header_seen:
                fields = tuple(f.strip() for f in line.split(","))
                if fields != COLLECTION_HEADER_FIELDS:
                    raise ValueError(
                        f"line {lineno}: missing or malformed header: {line!r}"
                    )
                header_seen = True
                continue
            if not line.strip():
                continue
            if line.endswith(","):
                line = line[:-1]
            tokens = [t.strip() for t in line.split(",")]
            if len(tokens) != 8:
                raise ValueError(
                    f"line {lineno}: expected 8 fields, got {len(tokens)}"
                )
            try:
                t_rel = float(tokens[0])
                t_unix = float(tokens[1])
                channels = [int(t) for t in tokens[2:7]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed row: {exc}") from None
            try:
                label = parse_label(tokens[7])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            try:
                frames.append(SensorFrame(t_rel=t_rel, t_unix=t_unix, channels=channels))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            labels.append(label)
    if not header_seen:
        raise ValueError("missing or malformed header: empty input")
    return LabeledTrace(
        frames=tuple(frames),
        labels=tuple(labels),
        sample_interval=_infer_interval(frames),
    )


def _infer_interval(frames) -> float:
    if len(frames) < 2:
        return DEFAULT_SAMPLE_INTERVAL
    return statistics.median(
        b.t_rel - a.t_rel for a, b in zip(frames, frames[1:])
    )


def write_collection_csv(trace: LabeledTrace, sink) -> None:
    """Write a trace in the collection format, trailing commas included.

    Reading the result back yields a trace with identical frames and labels.
    """
    with open_text(sink, "w") as out:
        out.write(COLLECTION_HEADER + "\n")
        for frame, label in zip(trace.frames, trace.labels):
            fields = [
                str(frame.t_rel),
                str(frame.t_unix),
                *[str(v) for v in frame.channels],
                label.name.lower(),
            ]
            out.write("".join(f + "," for f in fields) + "\n")


def read_frames_from_line_stream(
    source: Iterable[str],
    interval: float = DEFAULT_SAMPLE_INTERVAL,
    label: GestureLabel = GestureLabel.RELAX,
) -> LabeledTrace:
    """Wrap raw device lines into a trace with synthesized timestamps.

    Frames get t_rel = index * interval and the given default label (RELAX
    unless stated otherwise). Parse failures carry the 1-based line number.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    with open_text(source) as lines:
        frames = []
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            try:
                values = parse_serial_line(raw)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            t_rel = len(frames) * interval
            frames.append(SensorFrame(t_rel=t_rel, t_unix=t_rel, channels=values))
    return LabeledTrace(
        frames=tuple(frames),
        labels=tuple([label] * len(frames)),
        sample_interval=interval,
    )
