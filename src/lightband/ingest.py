"""Readers and writers for the device line protocol and the collection CSV.

The device emits ASCII lines of five comma-separated intensities. The
collection file is a CSV with a fixed 8-field header; its writer appends a
comma after every field, so data rows carry a trailing comma before the
newline. Both quirks are reproduced here so that files round-trip exactly.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from .types import (
    DEFAULT_SAMPLE_INTERVAL,
    NUM_CHANNELS,
    FrameError,
    GestureLabel,
    LabeledTrace,
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
    the five intensities, and a label; a trailing comma is tolerated. Rows
    are parsed one at a time into typed buffers, so memory stays near the
    size of the final arrays; every error names its line.
    """
    t_rel, t_unix, channels = array("d"), array("d"), array("q")
    labels, linenos = [], array("q")
    label_tokens = {}  # label text -> GestureLabel, parsed once per spelling
    with open_text(source) as lines:
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
            tokens = line.split(",")
            if len(tokens) != 8:
                raise ValueError(
                    f"line {lineno}: expected 8 fields, got {len(tokens)}"
                )
            try:
                t_rel.append(float(tokens[0]))
                t_unix.append(float(tokens[1]))
                channels.extend(map(int, tokens[2:7]))
            except (ValueError, OverflowError) as exc:  # too large for int64: overflow
                raise ValueError(f"line {lineno}: malformed row: {exc}") from None
            token = tokens[7]
            label = label_tokens.get(token)
            if label is None:
                try:
                    label = label_tokens[token] = parse_label(token)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            labels.append(label)
            linenos.append(lineno)
    if not header_seen:
        raise ValueError("missing or malformed header: empty input")
    t_rel = np.frombuffer(t_rel, dtype=np.float64)
    try:
        return LabeledTrace(
            t_rel=t_rel,
            t_unix=np.frombuffer(t_unix, dtype=np.float64),
            channels=np.frombuffer(channels, dtype=np.int64).reshape(-1, NUM_CHANNELS),
            labels=labels,
            sample_interval=_infer_interval(t_rel),
        )
    except FrameError as exc:
        raise ValueError(f"line {linenos[exc.index]}: {exc}") from None


def _infer_interval(t_rel: np.ndarray) -> float:
    """Median frame spacing; the default when there is none to measure.

    Non-finite times also get the default, so that LabeledTrace reports
    them by row instead of as a non-finite interval.
    """
    if len(t_rel) < 2 or not np.isfinite(t_rel).all():
        return DEFAULT_SAMPLE_INTERVAL
    with np.errstate(over="ignore"):
        return float(np.median(np.diff(t_rel)))


def write_collection_csv(trace: LabeledTrace, sink) -> None:
    """Write a trace in the collection format, trailing commas included.

    Reading the result back yields a trace with identical frames and labels.
    """
    names = {label: label.name.lower() for label in GestureLabel}
    with open_text(sink, "w") as out:
        out.write(COLLECTION_HEADER + "\n")
        out.writelines(
            f"{t},{u},{c[0]},{c[1]},{c[2]},{c[3]},{c[4]},{names[label]},\n"
            for t, u, c, label in trace.rows()
        )


def read_frames_from_line_stream(
    source: Iterable[str],
    interval: float = DEFAULT_SAMPLE_INTERVAL,
    label: GestureLabel = GestureLabel.RELAX,
) -> LabeledTrace:
    """Wrap raw device lines into a trace with synthesized timestamps.

    Frames get t_rel = index * interval and the given default label (RELAX
    unless stated otherwise). Parse failures carry the 1-based line number.
    """
    channels = array("q")
    with open_text(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            try:
                channels.extend(parse_serial_line(raw))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    n = len(channels) // NUM_CHANNELS
    with np.errstate(invalid="ignore"):  # 0 * inf; LabeledTrace rejects the interval
        t_rel = np.arange(n) * interval
    return LabeledTrace(
        t_rel=t_rel,
        t_unix=t_rel,
        channels=np.frombuffer(channels, dtype=np.int64).reshape(n, NUM_CHANNELS),
        labels=(label,) * n,
        sample_interval=interval,
    )
