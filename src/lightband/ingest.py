"""Codecs of the device line protocol and the collection CSV; the label-file writer.

The device emits ASCII lines of five comma-separated intensities. The
collection file is a CSV with a fixed 8-field header; its writer appends a
comma after every field, so data rows carry a trailing comma before the
newline. Both quirks are reproduced here so that files round-trip exactly.
"""

from __future__ import annotations

import os
import stat
import warnings
from array import array
from bisect import bisect_right
from contextlib import contextmanager, suppress
from functools import cache
from itertools import chain, islice
from operator import itemgetter
from typing import Callable

import numpy as np

from .types import (
    CLASS_INDEX,
    CLASS_LABELS,
    INTENSITY_MAX,
    INTENSITY_MIN,
    LABEL_TEXT,
    NUM_CHANNELS,
    ROW_BLOCK,
    FrameError,
    LabeledTrace,
    _time_column,
    label_codes,
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

# The writers' text tables, indexed by the (validated) values: an intensity
# with its comma ("512,"), and a label's class index as the end of a row, in
# the collection CSV ("relax,\n") and in the label file ("relax\n").
_INTENSITY_FIELD = np.array([f"{v}," for v in range(INTENSITY_MAX + 1)], dtype=object)
_COLLECTION_ROW_END = np.array([f"{LABEL_TEXT[l]},\n" for l in CLASS_LABELS], dtype=object)
_LABEL_ROW_END = np.array([f"{LABEL_TEXT[l]}\n" for l in CLASS_LABELS], dtype=object)
_CODE_BY_TEXT = {text: CLASS_INDEX[label] for label, text in LABEL_TEXT.items()}
# The bytes a written row is made of (repr() of a float may add "e", "+",
# "-", "inf" or "nan"), and the row as loadtxt parses it. The label field is
# one character wider than "transition", so that no longer token is cut down
# to a label's spelling; the 9th field must be empty.
_CANONICAL_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz.+-,\r\n"
_CANONICAL_ROW = np.dtype([
    ("t_rel", "f8"),
    ("t_unix", "f8"),
    ("channels", "i8", (NUM_CHANNELS,)),
    ("label", "U11"),
    ("empty", "U1"),
])


def parse_serial_line(line: str) -> list:
    """Parse one device line into five intensity integers.

    Each token goes to int() as it is, so whitespace around a value, a
    trailing carriage return included, is tolerated exactly where int()
    tolerates it (not U+001C to U+001F, which str.strip() would remove).
    Raises ValueError on wrong field count, non-integer tokens, or
    out-of-range values.
    """
    tokens = line.split(",")
    if len(tokens) != NUM_CHANNELS:
        raise ValueError(f"expected {NUM_CHANNELS} comma-separated values, got {len(tokens)}")
    values = []
    for token in tokens:
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
    open for its owner to close. In "w" mode an existing output that
    _replacing_opener accepts is replaced by a new file, not truncated.
    """
    if isinstance(target, (str, os.PathLike)):
        opener = _replacing_opener(target) if mode == "w" else None
        with open(target, mode, newline="", opener=opener) as handle:
            yield handle
    else:
        yield target


def _replacing_opener(path):
    """An open() opener that unlinks path and creates it afresh, or None.

    Opening a file that holds data with O_TRUNC can block (ext4's
    auto_da_alloc flushes it first: ~80 ms for 1 MB), while unlink and create
    cost well under 1 ms. Only a regular file with one link, owned by this
    user and writable by its owner qualifies. The new file gets its mode
    bits; its xattrs, ACLs and group are not carried over, and a reader that
    holds it open keeps the old bytes. Anything else (a missing path, a
    symlink, a hard link, a read-only or foreign file, a device, a FIFO) gets
    None, and open() truncates it in place.
    """
    try:
        st = os.lstat(path)
    except OSError:
        return None
    if not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and st.st_uid == os.geteuid()
        and st.st_mode & stat.S_IWUSR
    ):
        return None
    bits = stat.S_IMODE(st.st_mode)

    def opener(file, flags):
        try:
            os.unlink(file)
        except OSError:  # e.g. a directory this user may not write: truncate
            return os.open(file, flags, 0o666)
        fd = os.open(file, flags, bits)
        with suppress(OSError):  # the umask already made the file no wider
            os.fchmod(fd, bits)
        return fd

    return opener


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
    is parsed by numpy's loadtxt (_canonical_columns); any other block,
    blank lines and errors included, is parsed row by row through
    numbered_rows, which names the line of every error. LabeledTrace then
    checks the whole trace (times strictly increasing, every step within 50%
    of the median step); a frame it rejects is reported by its line too,
    found from one (first row, first line) span per canonical block and one
    per row of any other block.
    """
    t_rel, t_unix, channels = array("d"), array("d"), array("q")
    labels = array("b")  # class indices
    spans = []  # (first row, its line); the rows after it follow line by line
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
                t_rel.frombytes(block_t_rel)
                t_unix.frombytes(block_t_unix)
                channels.frombytes(block_channels)
                spans.append((len(labels), first))
                labels.frombytes(block_labels)
            else:
                rows = numbered_rows(block, _parse_collection_row, first)
                for lineno, (row_t_rel, row_t_unix, row_channels, label) in rows:
                    t_rel.append(row_t_rel)
                    t_unix.append(row_t_unix)
                    channels.extend(row_channels)
                    spans.append((len(labels), lineno))
                    labels.append(CLASS_INDEX[label])
            first += len(block)
    try:
        return LabeledTrace(
            t_rel=np.frombuffer(t_rel, dtype=np.float64),
            t_unix=np.frombuffer(t_unix, dtype=np.float64),
            channels=np.frombuffer(channels, dtype=np.int64).reshape(-1, NUM_CHANNELS),
            labels=np.frombuffer(labels, dtype=np.int8),
        )
    except FrameError as exc:
        row, line = spans[bisect_right(spans, exc.index, key=itemgetter(0)) - 1]
        raise ValueError(f"line {line + exc.index - row}: {exc.reason}") from None


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
    fields, the last of them empty but for the line end, in the writer's
    alphabet (_CANONICAL_BYTES). numpy's loadtxt parses such a block in C and
    gives what the row-by-row parse gives: (t_rel, t_unix) as float64 bytes,
    the intensities as row-major int64 bytes, and the labels' class indices
    as int8 bytes. The alphabet check comes first: loadtxt strips characters
    that int() and float() do not (U+001C to U+001F), and numpy 2.4.6's
    loadtxt can crash the interpreter on a non-BMP character in an integer
    field. A block that loadtxt rejects or warns about, that has a blank
    line, or that holds a label other than the five lower-case spellings is
    declined too.
    """
    text = "".join(block)
    if not text.isascii() or text.encode().translate(None, _CANONICAL_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                block, dtype=_CANONICAL_ROW, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, Warning):  # a token loadtxt refuses
        return None
    if len(rows) != len(block) or rows["empty"].view(np.uint32).any():
        return None  # a blank line was skipped, or a 9th field holds text
    # the labels by runs: one compare finds where each run starts, and each
    # run's text is looked up once
    texts = rows["label"]
    starts = [0, *(np.flatnonzero(texts[1:] != texts[:-1]) + 1).tolist()]
    try:
        run_codes = list(map(_CODE_BY_TEXT.__getitem__, texts[starts].tolist()))
    except KeyError:  # not one of the five lower-case spellings
        return None
    lengths = np.diff(starts, append=len(texts))
    return (
        rows["t_rel"].tobytes(),
        rows["t_unix"].tobytes(),
        rows["channels"].tobytes(),
        np.repeat(np.array(run_codes, dtype=np.int8), lengths).tobytes(),
    )


@cache
def _time_tail() -> np.ndarray:
    """The tails _time_fields indexes: entry 0 is the bare comma after a
    repr(); entry 1 + k is the point, the four digits of k without trailing
    zeros ("0" if none are left) and the comma. Built on first use, once per
    process that writes: 10,001 strings, a few ms and about 0.4 MB."""
    fractions = (str(10**4 + k)[1:].rstrip("0") or "0" for k in range(10**4))
    return np.array([","] + [f".{f}," for f in fractions], dtype=object)


def _time_fields(values: np.ndarray) -> tuple:
    """(heads, tails), lists with heads[i] + tails[i] == repr(values[i]) + ",".

    values is a 1-D float64 block. A value v takes the fixed-point path when
    v >= 0, v is not -0.0, v < 2**52 / 10**5 and c = rint(v * 10**4)
    satisfies c / 10**4 == v. Its head is then str(c // 10**4) and its tail
    the point and the four digits of c % 10**4 without trailing zeros, from
    _time_tail(). Every other value gets head repr(v) and tail ",".

    Why the text is repr(v), the shortest decimal that reads back as v
    (CPython's repr with sys.float_repr_style "short"): let D be that text,
    with d <= 4 digits after the point.
    - c and 10**4 are exact doubles, so c / 10**4 is the correctly rounded
      value of D; as it equals v, D reads back as v.
    - v < 2**52 / 10**5, so one ulp of v is below 10**-5. Any other decimal
      with no more significant digits than D lies at least 10**-(d+1) from
      D, and two decimals that far apart cannot both read back as v.
    - Each such v is 0 or in [1e-4, 1e16), where repr() writes fixed point.
    The heads of the integer parts come from one str() per integer in
    range(min, max + 1) when that span is at most twice the block (times
    increase, so it nearly always is), else from one str() per value.
    """
    n = len(values)
    # a clear sign bit and v < limit: v >= 0, not -0.0, not NaN
    eligible = ~np.signbit(values) & (values < 2.0**52 / 10**5)
    c = np.rint(np.where(eligible, values, 0.0) * 10**4)
    fast = eligible & (c / 10**4 == values)
    ints, fraction = np.divmod(c.astype(np.int64), 10**4)
    # heads[i] is names[ints[i]]: the integer parts, then the repr()s
    names = []
    slow = np.flatnonzero(~fast)
    if slow.size < n:
        lo, hi = int(ints[fast].min()), int(ints[fast].max())
        if hi - lo <= 2 * n:
            names = list(map(str, range(lo, hi + 1)))
            ints -= lo
        else:
            names = list(map(str, ints[fast].tolist()))
            ints[fast] = np.arange(len(names))
    ints[slow] = len(names) + np.arange(slow.size)
    names += map(repr, values[slow].tolist())
    tails = np.where(fast, 1 + fraction, 0)
    return np.array(names, dtype=object)[ints].tolist(), _time_tail()[tails].tolist()


def write_collection_csv(trace: LabeledTrace, sink) -> None:
    """Write a trace in the collection format, trailing commas included.

    Reading the result back yields a trace with identical frames and labels.
    A block of ROW_BLOCK rows at a time is one join over column iterators:
    each time as a head and a tail from _time_fields (the text of repr(),
    then a comma), intensities and labels through text tables whose entries
    carry their comma or their row end.
    """
    with open_text(sink, "w") as out:
        out.write(COLLECTION_HEADER + "\n")
        for start in range(0, len(trace), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            out.write("".join(chain.from_iterable(zip(
                *_time_fields(trace.t_rel[block]),
                *_time_fields(trace.t_unix[block]),
                *_INTENSITY_FIELD[trace.channels[block]].T.tolist(),
                _COLLECTION_ROW_END[trace.labels[block]].tolist(),
            ))))


def write_label_file(t_rel, labels, sink) -> None:
    """Write classify's label file: a "t_rel,label" header, then a row per frame.

    A row is repr(t) as float64, a comma and the label's text, joined block
    by block from _time_fields as in write_collection_csv. The labels are
    GestureLabel members or an array of class indices (label_codes). Raises
    ValueError, before anything is written, for times that are not a 1-D
    int or float column (_time_column), if the lengths differ, or for a bad
    label, a FrameError naming its row.
    """
    t_rel = _time_column(t_rel, "t_rel")
    if len(t_rel) != len(labels):
        raise ValueError(f"{len(t_rel)} times but {len(labels)} labels")
    codes = label_codes(labels)
    with open_text(sink, "w") as out:
        out.write("t_rel,label\n")
        for start in range(0, len(codes), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            out.write("".join(chain.from_iterable(zip(
                *_time_fields(t_rel[block]),
                _LABEL_ROW_END[codes[block]].tolist(),
            ))))
