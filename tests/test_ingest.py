import functools
import io
import math
import os
import re
import stat
import warnings
from array import array
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NON_BMP,
    E,
    F,
    O,
    R,
    T,
    make_trace,
    members,
    oracle_examples,
    random_rows,
    run_python,
    write_non_bmp_collection,
)
from lightband import ingest, mlp
from lightband.ingest import (
    COLLECTION_HEADER,
    COLLECTION_HEADER_FIELDS,
    open_text,
    parse_serial_line,
    read_collection_csv,
    write_collection_csv,
    write_label_file,
)
from lightband.signature import SignatureTable, read_signature_csv, write_signature_csv
from lightband.simulate import read_script
from lightband.types import (
    CLASS_INDEX,
    LABEL_TEXT,
    ROW_BLOCK,
    FrameError,
    GestureLabel,
    LabeledTrace,
    parse_label,
)


def test_parse_serial_line_examples():
    assert parse_serial_line("512,480,333,710,1023") == [512, 480, 333, 710, 1023]
    assert parse_serial_line("0,0,0,0,0\r") == [0, 0, 0, 0, 0]
    assert parse_serial_line(" 1, 2 ,3,4,5 \r\n") == [1, 2, 3, 4, 5]


def test_parse_serial_line_errors():
    with pytest.raises(ValueError, match="got 4"):
        parse_serial_line("512,480,333,710")
    with pytest.raises(ValueError, match="non-integer"):
        parse_serial_line("512,480,x,710,1")
    with pytest.raises(ValueError, match="1024"):
        parse_serial_line("1024,0,0,0,0")
    with pytest.raises(ValueError, match="-3"):
        parse_serial_line("-3,0,0,0,0")


_values = st.lists(st.integers(0, 1023), min_size=5, max_size=5)


@st.composite
def corrupted_lines(draw):
    values = draw(_values)
    tokens = [str(v) for v in values]
    kind = draw(st.sampled_from(["drop", "add", "garbage", "range"]))
    pos = draw(st.integers(0, 4))
    if kind == "drop":
        del tokens[pos]
    elif kind == "add":
        tokens.insert(pos, str(draw(st.integers(0, 1023))))
    elif kind == "garbage":
        tokens[pos] = draw(st.sampled_from(["", "abc", "1.5", "0x10", "--"]))
    else:
        tokens[pos] = str(draw(st.one_of(st.integers(-9999, -1), st.integers(1024, 99999))))
    return ",".join(tokens)


@given(corrupted_lines())
def test_parse_serial_line_rejects_corruption(line):
    with pytest.raises(ValueError):
        parse_serial_line(line)


def test_read_collection_csv_collector_row():
    text = COLLECTION_HEADER + "\n" + "0.12,1577836800.1,512,480,333,710,900,relax,\n"
    trace = read_collection_csv(io.StringIO(text))
    assert len(trace) == 1
    (frame,) = trace.frames
    assert frame.t_rel == 0.12
    assert frame.t_unix == 1577836800.1
    assert frame.channels == (512, 480, 333, 710, 900)
    assert members(trace.labels)[0] is R


def test_read_collection_csv_header_only():
    trace = read_collection_csv(io.StringIO(COLLECTION_HEADER + "\n"))
    assert len(trace) == 0


def test_read_collection_csv_row_without_trailing_comma():
    text = COLLECTION_HEADER + "\n" + "0.12,1577836800.1,512,480,333,710,900,relax\n"
    trace = read_collection_csv(io.StringIO(text))
    assert next(trace.frames).channels == (512, 480, 333, 710, 900)


def test_read_collection_csv_header_spacing_insensitive():
    text = "delta Time,Unix Time,ldr1,ldr2,ldr3,ldr4,ldr5,label\n"
    assert len(read_collection_csv(io.StringIO(text))) == 0


def test_read_collection_csv_errors():
    with pytest.raises(ValueError, match="header"):
        read_collection_csv(io.StringIO("time,stuff\n"))
    with pytest.raises(ValueError, match="header"):
        read_collection_csv(io.StringIO(""))
    bad_label = COLLECTION_HEADER + "\n0.0,0.0,1,2,3,4,5,jump,\n"
    with pytest.raises(ValueError, match="line 2.*jump"):
        read_collection_csv(io.StringIO(bad_label))
    short_row = COLLECTION_HEADER + "\n0.0,0.0,1,2,3,relax,\n"
    with pytest.raises(ValueError, match="line 2"):
        read_collection_csv(io.StringIO(short_row))
    out_of_range = COLLECTION_HEADER + "\n0.0,0.0,1,2,3,4,2000,relax,\n"
    with pytest.raises(ValueError, match="line 2"):
        read_collection_csv(io.StringIO(out_of_range))


def test_write_collection_csv_format():
    sink = io.StringIO()
    write_collection_csv(make_trace([[512, 480, 333, 710, 900]], [E]), sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == COLLECTION_HEADER
    assert lines[1] == "0.0,0.0,512,480,333,710,900,extend,"
    assert lines[1].endswith(",")


def test_write_collection_csv_empty_trace():
    sink = io.StringIO()
    write_collection_csv(make_trace([], []), sink)
    assert sink.getvalue() == COLLECTION_HEADER + "\n"


def test_collection_header_text():
    sink = io.StringIO()
    write_collection_csv(make_trace([], []), sink)
    assert sink.getvalue() == "delta Time, Unix Time, ldr1, ldr2, ldr3, ldr4, ldr5, label\n"


def test_collection_round_trip_example():
    trace = make_trace(
        [[512, 480, 333, 710, 900], [500, 470, 320, 700, 890], [1, 2, 3, 4, 5]],
        [R, T, E],
    )
    sink = io.StringIO()
    write_collection_csv(trace, sink)
    back = read_collection_csv(io.StringIO(sink.getvalue()))
    assert list(back.frames) == list(trace.frames)
    assert members(back.labels) == members(trace.labels)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from([0.01, 0.02, 0.05]),
)
def test_collection_round_trip_random(seed, n, interval):
    rng = np.random.default_rng(seed)
    labels = [GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)]
    trace = make_trace(random_rows(rng, n), labels, interval=interval)
    sink = io.StringIO()
    write_collection_csv(trace, sink)
    back = read_collection_csv(io.StringIO(sink.getvalue()))
    assert list(back.frames) == list(trace.frames)
    assert members(back.labels) == members(trace.labels)


def _collection_text(trace) -> str:
    sink = io.StringIO()
    write_collection_csv(trace, sink)
    return sink.getvalue()


@st.composite
def collection_traces(draw):
    n = draw(st.sampled_from([0, 1, 2, 17, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    interval = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1]))
    t_rel = np.arange(n) * interval
    start_unix = draw(st.sampled_from([0.0, 1_577_836_800.0, 1_700_000_000.123]))
    return LabeledTrace(
        t_rel=t_rel,
        t_unix=start_unix + t_rel,
        channels=rng.integers(0, 1024, size=(n, 5)),
        labels=[GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)],
    )


@settings(deadline=None, max_examples=oracle_examples(60))
@given(collection_traces())
def test_collection_write_read_write_is_byte_identical(trace):
    text = _collection_text(trace)
    back = read_collection_csv(io.StringIO(text))
    assert _collection_text(back) == text
    assert members(back.labels) == members(trace.labels)
    for column in ("t_rel", "t_unix", "channels"):
        assert np.array_equal(getattr(back, column), getattr(trace, column))


@given(_values)
def test_parse_serial_line_round_trips_device_lines(values):
    assert parse_serial_line(",".join(map(str, values)) + "\r\n") == values


_HEADER_BYTES = (COLLECTION_HEADER + "\n").encode()


@settings(deadline=None, max_examples=oracle_examples(200))
@given(st.one_of(st.binary(max_size=300), st.binary(max_size=300).map(_HEADER_BYTES.__add__)))
def test_read_collection_csv_random_bytes_raise_only_value_error(data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        read_collection_csv(stream)
    except ValueError:  # UnicodeDecodeError is one too
        pass


# Tokens on which numpy's loadtxt and int()/float() part ways: whitespace that
# only one of them strips, a digit int() reads, a non-BMP character (which can
# crash numpy 2.4.6's loadtxt in an int64 field), float and hex spellings of an
# integer, an upper-case exponent, comment and quote characters, and labels
# one character longer than "transition".
_GAP_CHARS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c", "\t", "\x00"]
_TOKENIZER_GAP = [
    *(f"{c}1023" for c in _GAP_CHARS), *(f"5{c}" for c in _GAP_CHARS), "\x1c7\x1f",
    "\u0661", NON_BMP, f"1{NON_BMP}", "1.0", "1e2", "1E5", "#", '"0.0"',
    "transitionx", "transitions", "transitionxx",
]

_BAD_TOKENS = st.one_of(
    st.sampled_from([
        "", " ", "x", "nan", "inf", "-inf", "1e999", "-1", "1024", "0.5", " 3 ", "1_0",
        "-0.0", "99999999999999999999", "relax", "JUMP", "\x00", "0x10", "1e308",
    ]),
    st.sampled_from(_TOKENIZER_GAP),
    st.text(max_size=6),
)


@st.composite
def mutated_serial_lines(draw):
    tokens = [str(v) for v in draw(_values)]
    tokens[draw(st.integers(0, 4))] = draw(_BAD_TOKENS)
    return ",".join(tokens) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=oracle_examples(300))
@given(st.one_of(
    st.binary(max_size=40).map(lambda b: b.decode("latin-1")),
    st.text(max_size=40),
    mutated_serial_lines(),
))
def test_parse_serial_line_random_input_raises_only_value_error(line):
    try:
        values = parse_serial_line(line)
    except ValueError:
        return
    # what a line that parses must hold: five decimal integers in range
    assert values == [int(token) for token in line.split(",")]
    assert all(0 <= v <= 1023 for v in values)


@st.composite
def mutated_collections(draw):
    trace = draw(collection_traces().filter(len))
    lines = _collection_text(trace).splitlines(keepends=True)
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].rstrip("\n").split(",")
    kind = draw(st.sampled_from(["replace", "drop", "add", "delete", "duplicate", "blank"]))
    pos = draw(st.integers(0, 7))
    if kind == "replace":
        fields[pos] = draw(_BAD_TOKENS)
    elif kind == "drop":
        del fields[pos]
    elif kind == "add":
        fields.insert(pos, draw(_BAD_TOKENS))
    lines[row] = ",".join(fields) + "\n"
    if kind == "delete":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "blank":
        lines.insert(row, draw(st.sampled_from(["\n", " \n", "\r\n"])))
    return "".join(lines)


@settings(deadline=None, max_examples=oracle_examples(300))
@given(mutated_collections())
def test_read_collection_csv_mutated_rows_raise_only_value_error(text):
    try:
        trace = read_collection_csv(io.StringIO(text))
    except ValueError:
        return
    assert trace.channels.shape == (len(trace), 5)


def test_read_collection_csv_row_errors_name_their_line():
    times = ["0.0", "", "0.02", "0.04", "0.06", "0.12"]  # a blank line 3, then a gap
    rows = [f"{t},0.0,1,2,3,4,5,relax," if t else "" for t in times]
    text = COLLECTION_HEADER + "\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError, match="line 7: frame spacing"):
        read_collection_csv(io.StringIO(text))
    text = COLLECTION_HEADER + "\n0.0,0.0,1,2,3,4,5,relax,\nnan,0.0,1,2,3,4,5,relax,\n"
    with pytest.raises(ValueError, match="line 3: t_rel must be finite"):
        read_collection_csv(io.StringIO(text))
    text = COLLECTION_HEADER + "\n0.0,0.0,1,2,3,4,99999999999999999999,relax,\n"
    with pytest.raises(ValueError, match="line 2: malformed row"):
        read_collection_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "blank", [None, 5, 9], ids=["canonical", "blank_in_block_2", "blank_in_block_3"]
)
@pytest.mark.parametrize("bad_row", [5, 9], ids=["row_in_block_2", "row_in_block_3"])
@pytest.mark.parametrize("fault", ["repeated_time", "intensity_1024"])
def test_reader_names_the_line_of_a_bad_frame_in_a_later_block(fault, bad_row, blank):
    # blocks of 4 lines; a blank line before row `blank` sends its block
    # through the row-by-row parse, and moves the lines of the rows after it
    rows = [f"{i * 0.02!r},0.0,1,2,3,4,5,relax," for i in range(12)]
    if fault == "repeated_time":
        rows[bad_row] = rows[bad_row - 1]
    else:
        rows[bad_row] = rows[bad_row].replace(",5,relax,", ",1024,relax,")
    if blank is not None:
        rows.insert(blank, "")
    line = bad_row + 2 + (blank is not None and blank <= bad_row)
    text = COLLECTION_HEADER + "\n" + "\n".join(rows) + "\n"
    with patch.object(ingest, "ROW_BLOCK", 4), pytest.raises(ValueError, match=f"^line {line}: "):
        read_collection_csv(io.StringIO(text))


@pytest.mark.parametrize("times, message", [
    (["0.1", "0.08", "0.06", "0.04"], "line 3: t_rel must be strictly increasing (0.1 -> 0.08)"),
    (["0.0", "0.02", "0.02", "0.04"], "line 4: t_rel must be strictly increasing (0.02 -> 0.02)"),
    (["0.0", "", "0.02", "0.01"], "line 5: t_rel must be strictly increasing (0.02 -> 0.01)"),
], ids=["decreasing", "repeated", "after_a_blank_line"])
def test_read_collection_csv_names_the_line_where_time_stops_increasing(times, message):
    rows = [f"{t},0.0,1,2,3,4,5,relax," if t else "" for t in times]
    text = COLLECTION_HEADER + "\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_collection_csv(io.StringIO(text))


_MODEL = mlp.init_model(mlp.MlpConfig(hidden=(3,), output_dim=2), np.random.default_rng(0))

# format -> (write(sink) or None, read(source) or None, text used when no writer)
IO_FORMATS = {
    "collection": (
        lambda sink: write_collection_csv(make_trace([[1, 2, 3, 4, 5]] * 3, [R, T, E]), sink),
        read_collection_csv,
        None,
    ),
    "signature": (
        lambda sink: write_signature_csv(
            SignatureTable(deltas={(g, s): -s * 10.5 for g in (E, F, O) for s in (2, 3, 4)}),
            sink,
        ),
        read_signature_csv,
        None,
    ),
    "script": (None, read_script, "extend\nfist\n\none\n"),
    "model": (lambda sink: mlp.save_model(_MODEL, sink), mlp.load_model, None),
    "labels": (lambda sink: mlp.write_labels_csv(np.array([0, 3, 1]), sink), None, None),
    "metrics": (
        lambda sink: mlp.write_metrics_csv(
            mlp.TrainReport(train_loss=[0.5, 0.25], train_acc=[0.5, 1.0]), sink
        ),
        None,
        None,
    ),
}


# The three line readers -> (read, header line or None, two good rows, a bad row)
LINE_READERS = {
    "collection": (
        read_collection_csv,
        COLLECTION_HEADER,
        ("0.0,0.0,1,2,3,4,5,relax,", "0.02,0.0,1,2,3,4,5,extend,"),
        "0.04,0.0,1,2,3,relax,",
    ),
    "signature": (
        read_signature_csv, "gesture,sensor,delta", ("extend,2,-1.5", "extend,3,-2.5"), "fist,4"
    ),
    "script": (read_script, None, ("extend", "fist"), "relax"),
}


def _line_reader_sources(tmp_path, text):
    """The same text as a path and as a stream that keeps every line end."""
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode())
    return [str(path), io.StringIO(text, newline="")]


@pytest.mark.parametrize("name", LINE_READERS)
def test_line_readers_share_one_line_rule(tmp_path, name):
    read, header, good, bad = LINE_READERS[name]
    head = [header] if header else []
    # "\r\n" and bare "\r" line ends, and a blank line before the bad row
    lines = head + list(good) + ["  ", bad]
    text = "".join(line + end for line, end in zip(lines, ["\r\n", "\r"] * len(lines)))
    for source in _line_reader_sources(tmp_path, text):
        with pytest.raises(ValueError, match=f"^line {len(lines)}: "):
            read(source)
    read(io.StringIO("\r".join(head + list(good)), newline=""))  # the good rows read
    # characters str.splitlines also splits at stay inside their line
    for char in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        text = "\n".join(head + [char.join(good)]) + "\n"
        for source in _line_reader_sources(tmp_path, text):
            with pytest.raises(ValueError, match=f"^line {len(head) + 1}: "):
                read(source)


def _comparable(value):
    if isinstance(value, mlp.MlpModel):
        arrays = value.weights + value.biases
        return value.config, [a.tolist() for a in arrays]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@pytest.mark.parametrize("name", [n for n, (w, _, _) in IO_FORMATS.items() if w])
def test_writers_give_same_bytes_to_path_and_stream(tmp_path, name):
    write, _, _ = IO_FORMATS[name]
    path = tmp_path / "out.txt"
    write(str(path))
    sink = io.StringIO()
    write(sink)
    assert not sink.closed  # a caller's stream stays open
    assert path.read_bytes() == sink.getvalue().encode()
    # rewriting an existing, longer file leaves the same bytes
    path.write_text("stale row\n" * 10_000)
    write(str(path))
    assert path.read_bytes() == sink.getvalue().encode()


@pytest.mark.parametrize("name", [n for n, (_, r, _) in IO_FORMATS.items() if r])
def test_readers_give_same_result_from_path_and_stream(tmp_path, name):
    write, read, text = IO_FORMATS[name]
    if text is None:
        sink = io.StringIO()
        write(sink)
        text = sink.getvalue()
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode())
    from_path = _comparable(read(str(path)))
    assert from_path == _comparable(read(path))  # PathLike as well as str
    assert from_path == _comparable(read(io.StringIO(text)))


# --- open_text's "w" mode: replace a plain file, write anything else in place ---


def _rewrite(path):
    with open_text(path, "w") as out:
        out.write("new bytes\n")


def _plain_rewrite(path):
    with open(path, "w", newline="") as out:
        out.write("new bytes\n")


def test_open_text_replaces_a_plain_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n")
    # a reader holding the old file keeps it; a truncated file would read
    # empty or the new bytes (inode numbers prove nothing: ext4 reuses them)
    with open(path) as old:
        _rewrite(path)
        assert old.read() == "old bytes\n"
    assert path.read_text() == "new bytes\n"


@pytest.mark.parametrize("bits", [0o600, 0o640, 0o664, 0o700, 0o777])
def test_open_text_keeps_the_mode_bits_of_a_replaced_file(tmp_path, bits):
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n")
    path.chmod(bits)
    _rewrite(path)
    assert stat.S_IMODE(path.stat().st_mode) == bits
    assert path.read_text() == "new bytes\n"


def test_open_text_replacement_is_never_wider_when_fchmod_fails(tmp_path, monkeypatch):
    def refuse(fd, mode):
        raise PermissionError("fchmod refused")

    monkeypatch.setattr(os, "fchmod", refuse)
    path = tmp_path / "out.csv"
    path.write_text("old bytes\n")
    path.chmod(0o600)
    _rewrite(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "new bytes\n"


def _symlink(path, monkeypatch):
    """Move the file aside and leave a symlink to it at path."""
    target = path.with_name(path.name + ".target")
    path.rename(target)
    path.symlink_to(target.name)


def _foreign(path, monkeypatch):
    """Make geteuid() name someone other than the file's owner."""
    owner = path.stat().st_uid
    monkeypatch.setattr(os, "geteuid", lambda: owner + 1)


def _refuse_unlink(path):
    raise PermissionError("unlink refused")


# kind -> what turns a fresh regular file at path into that kind of output
IN_PLACE_OUTPUTS = {
    "hard link": lambda path, monkeypatch: os.link(path, path.with_name("link.csv")),
    "symlink": _symlink,
    "read-only": lambda path, monkeypatch: path.chmod(0o444),
    "another user's": _foreign,
    "in a directory that refuses unlink": lambda path, monkeypatch: monkeypatch.setattr(
        os, "unlink", _refuse_unlink
    ),
}


def _names_and_bytes(path):
    """Every name beside path with its bytes, link target, mode and links."""
    return sorted(
        (p.name, p.read_bytes(), os.readlink(p) if p.is_symlink() else None,
         stat.S_IMODE(p.lstat().st_mode), p.lstat().st_nlink)
        for p in path.parent.iterdir()
    )


def _outcome(path, rewrite):
    """What rewriting path does: the error, what an old reader sees, the files."""
    with open(path) as old:
        try:
            rewrite(path)
            error = None
        except OSError as exc:
            error = type(exc)
        seen = old.read()
    return error, seen, _names_and_bytes(path)


@pytest.mark.parametrize("kind", IN_PLACE_OUTPUTS)
def test_open_text_writes_other_outputs_as_plain_open_does(tmp_path, monkeypatch, kind):
    outcomes = []
    for side, rewrite in (("ours", _rewrite), ("twin", _plain_rewrite)):
        path = tmp_path / side / "out.csv"
        path.parent.mkdir()
        path.write_text("old bytes\n")
        path.chmod(0o640)
        IN_PLACE_OUTPUTS[kind](path, monkeypatch)
        outcomes.append(_outcome(path, rewrite))
    assert outcomes[0] == outcomes[1]
    if kind != "read-only" or os.geteuid() == 0:  # written in place, not replaced
        assert outcomes[0][:2] == (None, "new bytes\n")


def test_open_text_leaves_other_targets_to_plain_open(tmp_path):
    with pytest.raises(IsADirectoryError):
        _rewrite(tmp_path)
    _rewrite(os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)  # opening it for writing would wait for a reader
    for target in (fifo, tmp_path / "missing.csv", tmp_path):
        assert ingest._replacing_opener(target) is None
    stream = io.StringIO("old bytes\n")
    with open_text(stream, "w") as out:
        assert out is stream
    assert (stream.getvalue(), stream.tell(), stream.closed) == ("old bytes\n", 0, False)


# --- The block codec against the row-by-row reader and f-string writer ---


def reference_read_collection_csv(source) -> LabeledTrace:
    """The row-by-row collection reader: the oracle for read_collection_csv."""
    t_rel, t_unix, channels = array("d"), array("d"), array("q")
    labels, linenos = [], array("q")
    with open_text(source) as lines:
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not header_seen:
                fields = tuple(f.strip() for f in line.split(","))
                if fields != COLLECTION_HEADER_FIELDS:
                    raise ValueError(f"line {lineno}: missing or malformed header: {line!r}")
                header_seen = True
                continue
            if not line.strip():
                continue
            if line.endswith(","):
                line = line[:-1]
            tokens = line.split(",")
            if len(tokens) != 8:
                raise ValueError(f"line {lineno}: expected 8 fields, got {len(tokens)}")
            try:
                t_rel.append(float(tokens[0]))
                t_unix.append(float(tokens[1]))
                channels.extend(map(int, tokens[2:7]))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: malformed row: {exc}") from None
            try:
                labels.append(parse_label(tokens[7]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            linenos.append(lineno)
    if not header_seen:
        raise ValueError("missing or malformed header: empty input")
    try:
        return LabeledTrace(
            t_rel=np.frombuffer(t_rel, dtype=np.float64),
            t_unix=np.frombuffer(t_unix, dtype=np.float64),
            channels=np.frombuffer(channels, dtype=np.int64).reshape(-1, 5),
            labels=labels,
        )
    except FrameError as exc:
        raise ValueError(f"line {linenos[exc.index]}: {exc}") from None


def reference_collection_text(trace) -> str:
    """The f-string collection writer: the oracle for write_collection_csv."""
    names = {label: label.name.lower() for label in GestureLabel}
    return COLLECTION_HEADER + "\n" + "".join(
        f"{t},{u},{c[0]},{c[1]},{c[2]},{c[3]},{c[4]},{names[label]},\n"
        for t, u, c, label in zip(
            trace.t_rel.tolist(), trace.t_unix.tolist(), trace.channels.tolist(),
            members(trace.labels),
        )
    )


def _read_outcome(read, text):
    """What a reader makes of text: a LabeledTrace, or its ValueError message."""
    try:
        return read(io.StringIO(text, newline=""))
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_reads_like_reference(text):
    got = _read_outcome(read_collection_csv, text)
    want = _read_outcome(reference_read_collection_csv, text)
    assert got == want, (got, want)


@functools.cache
def _codec_trace(n: int, seed: int) -> LabeledTrace:
    rng = np.random.default_rng(seed)
    # short, exponent, long and three-digit float reprs
    interval = (0.02, 1e-05, 0.1, 0.001)[seed % 4]
    t_rel = np.arange(n) * interval
    return LabeledTrace(
        t_rel=t_rel,
        t_unix=1_700_000_000.123 + t_rel,
        channels=rng.choice([0, 1, 9, 10, 99, 100, 512, 1022, 1023], size=(n, 5)),
        labels=[GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)],
    )


@functools.cache
def _codec_lines(n: int, seed: int) -> tuple:
    return tuple(_collection_text(_codec_trace(n, seed)).splitlines(keepends=True))


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_writer_matches_f_string_writer_at_block_edges(n):
    trace = _codec_trace(n, n)
    text = _collection_text(trace)
    assert text == reference_collection_text(trace)
    assert_reads_like_reference(text)


@pytest.mark.parametrize("n", [1, 4, ROW_BLOCK + 1])
def test_writer_matches_f_string_writer_on_t_unix_extremes(n):
    extremes = [-0.0, 5e-324, -1e300, 1.7976931348623157e308]
    trace = _codec_trace(n, 1)
    trace = LabeledTrace(
        t_rel=trace.t_rel,
        t_unix=[extremes[i % len(extremes)] for i in range(n)],
        channels=trace.channels,
        labels=trace.labels,
    )
    text = _collection_text(trace)
    assert text == reference_collection_text(trace)
    assert text.splitlines()[1].split(",")[1] == "-0.0"
    assert_reads_like_reference(text)


def test_label_file_rejects_times_and_labels_of_different_lengths():
    sink = io.StringIO()
    with pytest.raises(ValueError, match="2 times but 1 labels"):
        write_label_file(np.array([0.0, 0.02]), [R], sink)
    assert sink.getvalue() == ""


def _label_file_text(t_rel, labels) -> str:
    sink = io.StringIO()
    write_label_file(t_rel, labels, sink)
    return sink.getvalue()


@pytest.mark.parametrize("t_rel", [[0.0, 1.0], np.array([0, 1])])
def test_label_file_writes_a_list_or_int_array_of_times_as_float64(t_rel):
    assert _label_file_text(t_rel, [R, O]) == "t_rel,label\n0.0,relax\n1.0,one\n"


@pytest.mark.parametrize("t_rel", [np.array([[0.0, 0.02]]), np.array(0.0)])
def test_label_file_rejects_times_that_are_not_one_dimensional(t_rel):
    sink = io.StringIO()
    with pytest.raises(ValueError, match="one-dimensional"):
        write_label_file(t_rel, [R], sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("bad", [3, "relax", None, [R]])
def test_label_file_rejects_a_label_that_is_not_a_gesture_label(bad):
    sink = io.StringIO()
    message = f"^row 2: label must be a GestureLabel, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        write_label_file([0.0, 0.02, 0.04], [R, E, bad], sink)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("bad, dtype", [(-1, np.int64), (5, np.int8), (300, np.int16)])
def test_label_file_rejects_a_class_index_outside_the_labels(bad, dtype):
    sink = io.StringIO()
    codes = np.array([0, 1, bad], dtype=dtype)
    with pytest.raises(ValueError, match=rf"^row 2: class index {bad} outside \[0, 5\)$"):
        write_label_file([0.0, 0.02, 0.04], codes, sink)
    assert sink.getvalue() == ""


@settings(deadline=None, max_examples=oracle_examples(60))
@given(
    st.lists(st.tuples(st.sampled_from(list(GestureLabel)), st.integers(1, 12)), max_size=10),
    st.sampled_from([np.int8, np.int64, np.uint8]),
    st.sampled_from([1, 3, ROW_BLOCK]),
)
def test_label_file_of_codes_equals_label_file_of_members(runs, dtype, block):
    labels = [label for label, length in runs for _ in range(length)]
    codes = np.array([CLASS_INDEX[label] for label in labels], dtype=dtype)
    t_rel = np.arange(len(labels)) * 0.02
    with patch.object(ingest, "ROW_BLOCK", block):
        text = _label_file_text(t_rel, codes)
        assert text == _label_file_text(t_rel, labels)
        assert text == _label_file_text(t_rel, tuple(labels))
    assert text == "t_rel,label\n" + "".join(
        f"{t!r},{label.name.lower()}\n" for t, label in zip(t_rel.tolist(), labels)
    )


def _fast_path_rule(v: float) -> bool:
    """Whether _time_fields's rule takes v off repr(), in exact arithmetic."""
    if not (math.isfinite(v) and v >= 0 and math.copysign(1.0, v) > 0):
        return False
    x = Fraction(v)
    return x * 10**5 < 2**52 and float(Fraction(round(x * 10**4), 10**4)) == v


def assert_time_fields_match_repr(values):
    """heads + tails is repr() and a comma, and the fast path is the rule's."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), ROW_BLOCK):
        block = values[start:start + ROW_BLOCK]
        heads, tails = ingest._time_fields(block)
        floats = block.tolist()
        assert [h + t for h, t in zip(heads, tails)] == [f"{v!r}," for v in floats]
        assert [t != "," for t in tails] == list(map(_fast_path_rule, floats))


def _grid_value(k: int, d: int, ulps: int) -> float:
    """k / 10**d, moved ulps steps along the doubles."""
    v = k / 10**d
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@settings(deadline=None, max_examples=oracle_examples(300))
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(_grid_value, st.integers(0, 2**53), st.integers(0, 6), st.integers(-2, 2)),
), max_size=40))
def test_time_fields_match_repr_on_random_floats(values):
    assert_time_fields_match_repr(values)


def _listed_time_values() -> np.ndarray:
    limits = [2**52 / 10 ** (d + 1) for d in range(6)]
    # d-digit decimals on both sides of 2**52 / 10, far above the limit
    edges = [math.floor(2**52 / 10) / 10**d for d in range(6)]
    edges += [math.ceil(2**52 / 10) / 10**d for d in range(6)]
    # the decimals of 0-4 digits just below and just above the one limit
    edges += [math.floor(Fraction(2**52, 10**5) * 10**d) / 10**d for d in range(5)]
    edges += [math.ceil(Fraction(2**52, 10**5) * 10**d) / 10**d for d in range(5)]
    k = np.arange(1000)
    grids = [k / 100, k / 1000, k / 10**4, (157_783_680_000 + k) / 100,
             (1_700_000_000_123 + k) / 1000, k * 0.02, 1_577_836_800.0 + k * 0.02]
    rng = np.random.default_rng(24)
    normals = [np.abs(rng.standard_normal(100)) * 10.0**e for e in range(-8, 17)]
    values = np.concatenate([
        [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-5, 1e-4, 1e16, 0.7000000000000001,
         -1.5, -1e300, 1.7976931348623157e308, *limits, *edges],
        *grids, *normals,
    ])
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_time_fields_match_repr_on_listed_cases():
    assert_time_fields_match_repr(_listed_time_values())


@pytest.mark.parametrize("block", [
    [1e9, 0.5, -2.0, 3.25, 1e-5],  # integer parts span too widely for the table
    [0.5, 1.25, math.nan, 2.0, -0.0],  # a span the table covers
    [-0.0, -1.0, math.nan, 1e300],  # no value takes the fast path
])
def test_time_fields_match_repr_on_both_head_tables(block):
    assert_time_fields_match_repr(block)


def test_time_fields_of_an_empty_block():
    assert ingest._time_fields(np.empty(0)) == ([], [])


def test_time_tail_table_is_built_by_the_first_writer_not_on_import():
    child = run_python("-c", (
        "import io\n"
        "from lightband import ingest\n"
        "from lightband.types import GestureLabel\n"
        "print(ingest._time_tail.cache_info().currsize)\n"
        "ingest.write_label_file([0.0, 0.02], [GestureLabel.RELAX] * 2, io.StringIO())\n"
        "print(ingest._time_tail.cache_info().currsize)\n"
    ))
    assert child.returncode == 0, (child.returncode, child.stderr)
    assert child.stdout == "0\n1\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=oracle_examples(60))
@given(st.data(), st.sampled_from([1, 2, 5, ROW_BLOCK]), st.integers(0, 40))
def test_writer_and_reader_match_references_on_random_traces(data, block, n):
    interval = data.draw(st.sampled_from([0.02, 1e-05, 3.0, 1e5]))
    t_rel = np.arange(n) * interval + data.draw(st.sampled_from([0.0, 0.1, 1e9]))
    trace = LabeledTrace(
        t_rel=t_rel,
        t_unix=data.draw(st.lists(_FINITE, min_size=n, max_size=n)),
        channels=data.draw(st.lists(st.lists(st.integers(0, 1023), min_size=5, max_size=5),
                                    min_size=n, max_size=n)),
        labels=data.draw(st.lists(st.sampled_from(list(GestureLabel)), min_size=n, max_size=n)),
    )
    with patch.object(ingest, "ROW_BLOCK", block):
        text = _collection_text(trace)
        assert text == reference_collection_text(trace)
        assert_reads_like_reference(text)


def _int_variants(value: int) -> list:
    """Spellings of an intensity that int() reads but the writer never writes."""
    text = str(value)
    return [f" {text}", f"{text} ", f"0{text}", f"+{text}", f"-{text}", f"{text[0]}_{text}",
            str(value + 1024), "-1", "1024", "1023 ", "00", "99999999999999999999",
            *(f"{c}{text}" for c in _GAP_CHARS), *(f"{text}{c}" for c in _GAP_CHARS),
            "\u0661", f"{text}{NON_BMP}", NON_BMP, "1.0", "1e2", "0x10"]


_BAD_ROW_KINDS = ["blank", "no_comma", "tail", "int", "label", "float", "fields", "crlf", "cr"]


@st.composite
def mutated_codec_texts(draw):
    """A written trace with bad or odd rows, placed around block boundaries."""
    block = draw(st.sampled_from([1, 2, 3, 7, ROW_BLOCK]))
    n = draw(st.sampled_from([1, 5, 23]) if block < ROW_BLOCK else st.just(2 * ROW_BLOCK + 3))
    lines = list(_codec_lines(n, draw(st.integers(0, 3))))
    edges = [b + d for b in range(0, n + 1, block) for d in (-1, 0, 1) if 0 <= b + d < n]
    spots = st.one_of(st.sampled_from(edges), st.integers(0, n - 1))
    for _ in range(draw(st.integers(1, 4))):
        row = 1 + draw(spots)
        line = lines[row]
        fields = line.rstrip("\n").split(",")
        kind = draw(st.sampled_from(_BAD_ROW_KINDS))
        if len(fields) != 9 or not line.endswith(",\n"):
            continue  # an earlier mutation's line; leave it as it is
        if kind == "blank":
            lines.insert(row, draw(st.sampled_from(["\n", " \n", "\t\r\n", "\r"])))
        elif kind == "no_comma":
            lines[row] = line[:-2] + "\n"
        elif kind == "tail":  # a ninth field after the trailing comma
            tail = draw(st.sampled_from(["x", " ", ",", "\t", "#", "\x1c"]))
            lines[row] = line[:-1] + tail + "\n"
        elif kind == "int":
            pos = draw(st.integers(2, 6))
            if fields[pos].isdigit():
                fields[pos] = draw(st.sampled_from(_int_variants(int(fields[pos]))))
        elif kind == "label":
            fields[7] = draw(st.sampled_from(
                [fields[7].upper(), fields[7].title(), f" {fields[7]}", f"{fields[7]} ",
                 "jump", "", "relax\t", "Transition", "transitionx", "transitions",
                 "transitionxx", f"{fields[7]}\x1f", f"\x0b{fields[7]}"]
            ))
        elif kind == "float":
            pos = draw(st.integers(0, 1))
            fields[pos] = draw(st.sampled_from(
                [f" {fields[pos]}", f"{fields[pos]} ", "x", "", "nan", "inf", "1e999", "1_0",
                 "0x10", f"+{fields[pos]}", "1E5", f"{fields[pos]}E5", "#", '"0.0"', "\u0661",
                 f"\x1c{fields[pos]}", f"{fields[pos]}\x0c", f"\t{fields[pos]}", NON_BMP]
            ))
        elif kind == "fields":
            if draw(st.booleans()):
                del fields[draw(st.integers(0, 7))]
            else:
                fields.insert(draw(st.integers(0, 8)), draw(st.sampled_from(["", "1", "relax"])))
        else:
            lines[row] = line.replace("\n", "\r\n" if kind == "crlf" else "\r")
        if kind in ("int", "label", "float", "fields"):
            lines[row] = ",".join(fields) + "\n"
    text = "".join(lines)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", "none"]))
    if ending == "none":
        text = text.rstrip("\n")
    elif ending != "\n":
        text = text.replace("\n", ending)
    return block, text


@settings(deadline=None, max_examples=oracle_examples(200))
@given(mutated_codec_texts())
def test_reader_matches_row_reference_on_odd_rows(case):
    block, text = case
    with patch.object(ingest, "ROW_BLOCK", block):
        assert_reads_like_reference(text)


def _labelled_text(names) -> str:
    """A collection CSV whose row i carries the label text names[i]."""
    rows = [f"{i * 0.02!r},0.0,1,2,3,4,5,{name},\n" for i, name in enumerate(names)]
    return COLLECTION_HEADER + "\n" + "".join(rows)


@st.composite
def label_run_texts(draw):
    """(names, text): rows in runs of one label, one row maybe misspelt."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(list(LABEL_TEXT.values())), st.integers(1, 9)),
        min_size=1, max_size=8,
    ))
    names = [name for name, length in runs for _ in range(length)]
    if draw(st.booleans()):
        row = draw(st.integers(0, len(names) - 1))
        names[row] = draw(st.sampled_from(
            [names[row].upper(), names[row].title(), names[row] + "x", names[row][:-1], "jump"]
        ))
    return names, _labelled_text(names)


@settings(deadline=None, max_examples=oracle_examples(100))
@given(label_run_texts(), st.sampled_from([1, 2, 3, 4, 7, ROW_BLOCK]))
def test_reader_matches_row_reference_on_label_runs(case, block):
    names, text = case
    with patch.object(ingest, "ROW_BLOCK", block):
        assert_reads_like_reference(text)
    # the whole file as one block: its labels by runs, or declined
    columns = ingest._canonical_columns(text.splitlines(keepends=True)[1:])
    if set(names) <= set(LABEL_TEXT.values()):
        assert members(np.frombuffer(columns[3], dtype=np.int8)) == list(map(parse_label, names))
    else:
        assert columns is None


def test_reader_matches_row_reference_on_listed_cases():
    rows = [f"{i * 0.02!r},0.0,1,2,3,4,5,relax," for i in range(6)]

    def text(*edits):
        lines = list(rows)
        for index, line in edits:
            lines[index] = line
        return COLLECTION_HEADER + "\n" + "\n".join(lines) + "\n"

    cases = [
        text(),
        text((2, "")),
        text((2, "   "), (4, "\t")),
        text((3, "0.06,0.0,1,2,3,4,5,relax")),
        text((1, "0.02,0.0, 1,2,3,4,5,relax,"), (4, "0.08,0.0,1,2,3,4,05,relax,")),
        text((1, "0.02,0.0,+1,2,3,4,5,relax,"), (2, "0.04,0.0,1_0,2,3,4,5,relax,")),
        text((5, "0.1,0.0,1,2,3,4,1024,relax,")),
        text((0, "0.0,0.0,-1,2,3,4,5,relax,"), (5, "0.1,0.0,1,2,3,4,-0,relax,")),
        text((3, "0.06,0.0,1,2,3,4,5,RELAX,")),
        text((3, "0.06,0.0,1,2,3,4,5,jump,"), (4, "0.08,0.0,1,2,3,4,5,hop,")),
        text((2, "0.04,0.0,1,2,3,4,5,relax,,")),
        text((2, "0.04,0.0,1,2,3,4,5,relax,x"), (3, "0.06,0.0,1,2,3,4,5,relax, ")),
        text((2, "0.04,x,1,2,3,4,5,relax,"), (4, "0.08,0.0,1,2,3,4,5,jump,")),
        text().replace("\n", "\r\n"),
        text().replace("\n", "\r"),
        text()[:-1],
        # where loadtxt and int()/float() part ways
        *(text((2, f"0.04,0.0,{c}1023,2,3,4,5,relax,")) for c in _GAP_CHARS),
        *(text((2, f"0.04,0.0,1,2,3,4,1023{c},relax,")) for c in _GAP_CHARS),
        *(text((2, f"{c}0.04,0.0,1,2,3,4,5,relax,")) for c in _GAP_CHARS),
        text((2, "0.04,0.0,\u0661,2,3,4,5,relax,")),
        text((2, f"0.04,0.0,{NON_BMP},2,3,4,5,relax,")),
        text((2, f"0.04,{NON_BMP},1,2,3,4,5,relax,")),
        text((2, f"0.04,0.0,1,2,3,4,5,relax{NON_BMP},")),
        text((2, "0.04,0.0,1.0,2,3,4,5,relax,")),
        text((2, "0.04,0.0,1,2,1e2,4,5,relax,")),
        text((2, "0.04,0.0,1,2,3,0x10,5,relax,")),
        text((2, "4E-2,0.0,1,2,3,4,5,relax,")),
        text((2, "0.04,1E5,1,2,3,4,5,relax,")),
        text((2, "0.04,0.0,1,2,3,4,5,relax,#")),
        text((2, "#0.04,0.0,1,2,3,4,5,relax,")),
        text((2, '"0.04",0.0,1,2,3,4,5,relax,')),
        text((2, '0.04,"0.0",1,2,3,4,5,relax,')),
        text((2, "0.04,0.0,1,2,3,4,5,transitionx,")),
        text((2, "0.04,0.0,1,2,3,4,5,transitions,")),
        text((2, "0.04,0.0,1,2,3,4,5,transitionxx,")),
        # label runs, read with 4-row blocks among others: a change at a
        # block's last row (3) and at its first (4), a new label on every
        # row, a run across a block edge, a bad spelling inside a run
        _labelled_text(["relax", "relax", "relax", "extend", "fist", "fist"]),
        _labelled_text(["relax", "extend", "fist", "one", "transition", "relax"]),
        _labelled_text(["one", "fist", "fist", "fist", "fist", "fist"]),
        _labelled_text(["fist", "fist", "fist", "Fist", "fist", "fist"]),
        _labelled_text(["fist", "fist", "fist", "fist", "fists", "fist"]),
        _labelled_text(["one", "one", "one", "one", "one", "ONE"]),
    ]
    for block in (1, 2, 4, 7, ROW_BLOCK):
        with patch.object(ingest, "ROW_BLOCK", block):
            for case in cases:
                assert_reads_like_reference(case)


def test_reader_reports_a_non_bmp_intensity_without_crashing(tmp_path):
    path = tmp_path / "non_bmp.csv"
    write_non_bmp_collection(path)
    message = f"line 3: malformed row: invalid literal for int() with base 10: {NON_BMP!r}"
    for _ in range(4):  # an unguarded loadtxt crashes about one child in two
        child = run_python("-c", (
            "import sys\n"
            "from lightband.ingest import read_collection_csv\n"
            "try:\n"
            "    read_collection_csv(sys.argv[1])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        ), str(path))
        assert child.returncode == 0, (child.returncode, child.stderr)  # not a signal
        assert child.stdout == message + "\n"
    assert _read_outcome(reference_read_collection_csv, path.read_text()) == f"ValueError: {message}"


def test_reader_declines_a_block_that_loadtxt_warns_about():
    """numpy 1.x is said to read "1.0" into an int64 field with a warning."""
    text = _collection_text(_codec_trace(9, 0))
    real_loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        rows = real_loadtxt(*args, **kwargs)
        rows["channels"] += 1
        warnings.warn("parsed a float as an integer", DeprecationWarning)
        return rows

    with patch.object(np, "loadtxt", warning_loadtxt):
        assert_reads_like_reference(text)
