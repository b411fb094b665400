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
from itertools import chain, islice, repeat
from typing import Callable

import numpy as np

from .types import (
    DEFAULT_SAMPLE_INTERVAL,
    INTENSITY_MAX,
    INTENSITY_MIN,
    LABEL_TEXT,
    NUM_CHANNELS,
    ROW_BLOCK,
    FrameError,
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
COLLECTION_HEADER = ", ".join(COLLECTION_HEADER_FIELDS)
_ROW_FORMAT = "{!r},{!r},{},{},{},{},{},{},\n".format

# Canonical intensity text, "0" to "1023": the writer's table, indexed by
# the (validated) intensities, and the reader's inverse.
_INTENSITY_TEXT = np.array([str(v) for v in range(INTENSITY_MAX + 1)], dtype=object)
_INTENSITY_BY_TEXT = {text: value for value, text in enumerate(_INTENSITY_TEXT)}
_LABEL_BY_TEXT = {text: label for label, text in LABEL_TEXT.items()}
# What is left of a line after its trailing comma: a line end, or nothing
# on a last line without one.
_LINE_ENDS = frozenset(("", "\n", "\r", "\r\n"))


def parse_serial_line(line: str) -> list:
    """Parse one device line into five intensity integers.

    Tolerates surrounding whitespace and a trailing carriage return. Raises
    ValueError on wrong field count, non-integer tokens, or out-of-range
    values.
    """
    tokens = line.strip().split(",")
    if len(tokens) != NUM_CHANNELS:
        raise ValueError(f"expected {NUM_CHANNELS} comma-separated values, got {len(tokens)}")
    values = []
    for token in tokens:
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"non-integer sensor value: {token!r}") from None
        if not INTENSITY_MIN <= value <= INTENSITY_MAX:
            raise ValueError(f"sensor value {value} outside [{INTENSITY_MIN}, {INTENSITY_MAX}]")
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


def text_lines(source):
    """Yield each line of a path, a text stream or an iterable, end stripped.

    A path is opened with newline="", so "\r\n", "\r" and "\n" end a line
    and nothing else does (str.splitlines would also split at "\f" or
    "\u2028"); a stream or iterable gives a line per item. Blank lines too.
    """
    with open_text(source) as lines:
        for line in lines:
            yield line.rstrip("\r\n")


def numbered_rows(source, parse_line: Callable[[str], object], first: int = 1):
    """Yield (line number, parse_line(line)) for each non-blank line of source.

    Lines come from text_lines(source), numbered from `first`; a line of
    whitespace is blank. A ValueError from parse_line is raised again as
    "line N: <message>".
    """
    for lineno, line in enumerate(text_lines(source), start=first):
        if line.strip():
            try:
                row = parse_line(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            yield lineno, row


def read_collection_csv(source) -> LabeledTrace:
    """Read a collection CSV (path or open text stream) into a LabeledTrace.

    The first line must match the collection header field-for-field, ignoring
    whitespace around the fields. Each data row holds delta time, unix time,
    the five intensities, and a label; a trailing comma is tolerated. The
    rows are read a block of ROW_BLOCK lines at a time, so memory stays near
    the size of the final arrays. A block of rows as the writer spells them
    is converted a column at a time (_canonical_columns); any other block,
    blank lines and errors included, is parsed row by row through
    numbered_rows, which names the line of every error.
    """
    t_rel, t_unix, channels = array("d"), array("d"), array("q")
    labels, linenos = [], array("q")
    with open_text(source) as stream:
        lines = iter(stream)
        header = next(lines, None)
        if header is None:
            raise ValueError("missing or malformed header: empty input")
        header = header.rstrip("\r\n")
        if tuple(f.strip() for f in header.split(",")) != COLLECTION_HEADER_FIELDS:
            raise ValueError(f"line 1: missing or malformed header: {header!r}")
        first = 2  # line number of the block's first line
        while block := list(islice(lines, ROW_BLOCK)):
            columns = _canonical_columns(block)
            if columns is not None:
                block_t_rel, block_t_unix, block_channels, block_labels = columns
                t_rel.extend(block_t_rel)
                t_unix.extend(block_t_unix)
                channels.frombytes(block_channels)
                labels.extend(block_labels)
                linenos.extend(range(first, first + len(block)))
            else:
                rows = numbered_rows(block, _parse_collection_row, first)
                for lineno, (row_t_rel, row_t_unix, row_channels, label) in rows:
                    t_rel.append(row_t_rel)
                    t_unix.append(row_t_unix)
                    channels.extend(row_channels)
                    labels.append(label)
                    linenos.append(lineno)
            first += len(block)
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


def _parse_collection_row(line: str) -> tuple:
    """(t_rel, t_unix, int64 intensities, label) of one data row."""
    tokens = line.removesuffix(",").split(",")
    if len(tokens) != 8:
        raise ValueError(f"expected 8 fields, got {len(tokens)}")
    try:
        values = float(tokens[0]), float(tokens[1]), array("q", map(int, tokens[2:7]))
    except (ValueError, OverflowError) as exc:  # too large for int64: overflow
        raise ValueError(f"malformed row: {exc}") from None
    return *values, parse_label(tokens[7])


def _canonical_columns(block: list):
    """A block of canonical rows as column values, or None for any other block.

    A canonical row is what write_collection_csv writes: 9 comma-separated
    fields, the last of them empty but for the line end; intensities spelled
    "0" to "1023"; a lower-case label; and times that float() parses. Such a
    block gives exactly what the row-by-row parse gives, without a Python
    call per row: (t_rel, t_unix) as arrays of doubles, the intensities as
    row-major int64 bytes, and the labels.
    """
    try:
        columns = tuple(zip(*map(str.split, block, repeat(",")), strict=True))
    except ValueError:  # rows of unequal width
        return None
    if len(columns) != 9 or not _LINE_ENDS.issuperset(columns[8]):
        return None
    try:
        intensities = np.fromiter(
            map(_INTENSITY_BY_TEXT.__getitem__, chain.from_iterable(columns[2:7])),
            dtype=np.int64,
            count=NUM_CHANNELS * len(block),
        )
        return (
            array("d", map(float, columns[0])),
            array("d", map(float, columns[1])),
            intensities.reshape(NUM_CHANNELS, -1).T.tobytes(),
            list(map(_LABEL_BY_TEXT.__getitem__, columns[7])),
        )
    except (KeyError, ValueError):  # a token spelled otherwise, or a bad float
        return None


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
    A block of ROW_BLOCK rows at a time is formatted by one row template
    mapped over its columns: times through repr(), intensities and labels
    through text tables.
    """
    with open_text(sink, "w") as out:
        out.write(COLLECTION_HEADER + "\n")
        for start in range(0, len(trace), ROW_BLOCK):
            end = start + ROW_BLOCK
            out.write("".join(map(
                _ROW_FORMAT,
                trace.t_rel[start:end].tolist(),
                trace.t_unix[start:end].tolist(),
                *_INTENSITY_TEXT[trace.channels[start:end]].T.tolist(),
                map(LABEL_TEXT.__getitem__, trace.labels[start:end]),
            )))

