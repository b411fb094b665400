import functools
import io
from array import array
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, make_trace, random_rows
from lightband import ingest, mlp
from lightband.ingest import (
    COLLECTION_HEADER,
    COLLECTION_HEADER_FIELDS,
    _infer_interval,
    open_text,
    parse_serial_line,
    read_collection_csv,
    write_collection_csv,
)
from lightband.signature import SignatureTable, read_signature_csv, write_signature_csv
from lightband.simulate import read_script
from lightband.types import ROW_BLOCK, FrameError, GestureLabel, LabeledTrace, parse_label


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
    frame = trace.frames[0]
    assert frame.t_rel == 0.12
    assert frame.t_unix == 1577836800.1
    assert frame.channels == (512, 480, 333, 710, 900)
    assert trace.labels[0] is R


def test_read_collection_csv_header_only():
    trace = read_collection_csv(io.StringIO(COLLECTION_HEADER + "\n"))
    assert len(trace) == 0


def test_read_collection_csv_row_without_trailing_comma():
    text = COLLECTION_HEADER + "\n" + "0.12,1577836800.1,512,480,333,710,900,relax\n"
    trace = read_collection_csv(io.StringIO(text))
    assert trace.frames[0].channels == (512, 480, 333, 710, 900)


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
    assert back.frames == trace.frames
    assert back.labels == trace.labels


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
    assert back.frames == trace.frames
    assert back.labels == trace.labels


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
        sample_interval=interval,
    )


@settings(deadline=None, max_examples=60)
@given(collection_traces())
def test_collection_write_read_write_is_byte_identical(trace):
    text = _collection_text(trace)
    back = read_collection_csv(io.StringIO(text))
    assert _collection_text(back) == text
    assert back.labels == trace.labels
    for column in ("t_rel", "t_unix", "channels"):
        assert np.array_equal(getattr(back, column), getattr(trace, column))


@given(_values)
def test_parse_serial_line_round_trips_device_lines(values):
    assert parse_serial_line(",".join(map(str, values)) + "\r\n") == values


_HEADER_BYTES = (COLLECTION_HEADER + "\n").encode()


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.binary(max_size=300), st.binary(max_size=300).map(_HEADER_BYTES.__add__)))
def test_read_collection_csv_random_bytes_raise_only_value_error(data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        read_collection_csv(stream)
    except ValueError:  # UnicodeDecodeError is one too
        pass


_BAD_TOKENS = st.one_of(
    st.sampled_from([
        "", " ", "x", "nan", "inf", "-inf", "1e999", "-1", "1024", "0.5", " 3 ", "1_0",
        "-0.0", "99999999999999999999", "relax", "JUMP", "\x00", "0x10", "1e308",
    ]),
    st.text(max_size=6),
)


@st.composite
def mutated_serial_lines(draw):
    tokens = [str(v) for v in draw(_values)]
    tokens[draw(st.integers(0, 4))] = draw(_BAD_TOKENS)
    return ",".join(tokens) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300)
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


@settings(deadline=None, max_examples=300)
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
    "features": (
        lambda sink: mlp.write_features_csv([[1.5, 2, 3, 4, 5], [6, 7, 8, 9, 10.25]], sink),
        mlp.load_features_csv,
        None,
    ),
    "labels": (lambda sink: mlp.write_labels_csv([0, 3, 1], sink), mlp.load_labels_csv, None),
    "metrics": (
        lambda sink: mlp.write_metrics_csv(
            mlp.TrainReport(train_loss=[0.5, 0.25], train_acc=[0.5, 1.0]), sink
        ),
        None,
        None,
    ),
}


# The five line readers -> (read, header line or None, two good rows, a bad row)
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
    "features": (mlp.load_features_csv, None, ("1,2,3,4,5", "6,7,8,9,10.5"), "1,2,x,4,5"),
    "labels": (mlp.load_labels_csv, None, ("0", "3"), "x"),
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
    t_rel = np.frombuffer(t_rel, dtype=np.float64)
    try:
        return LabeledTrace(
            t_rel=t_rel,
            t_unix=np.frombuffer(t_unix, dtype=np.float64),
            channels=np.frombuffer(channels, dtype=np.int64).reshape(-1, 5),
            labels=labels,
            sample_interval=_infer_interval(t_rel),
        )
    except FrameError as exc:
        raise ValueError(f"line {linenos[exc.index]}: {exc}") from None


def reference_collection_text(trace) -> str:
    """The f-string collection writer: the oracle for write_collection_csv."""
    names = {label: label.name.lower() for label in GestureLabel}
    return COLLECTION_HEADER + "\n" + "".join(
        f"{t},{u},{c[0]},{c[1]},{c[2]},{c[3]},{c[4]},{names[label]},\n"
        for t, u, c, label in trace.rows()
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
    interval = (0.02, 1e-05, 0.1)[seed % 3]  # short, exponent and long float reprs
    t_rel = np.arange(n) * interval
    return LabeledTrace(
        t_rel=t_rel,
        t_unix=1_700_000_000.123 + t_rel,
        channels=rng.choice([0, 1, 9, 10, 99, 100, 512, 1022, 1023], size=(n, 5)),
        labels=[GestureLabel(int(v)) for v in rng.integers(0, 5, size=n)],
        sample_interval=interval,
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=60)
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
        sample_interval=interval,
    )
    with patch.object(ingest, "ROW_BLOCK", block):
        text = _collection_text(trace)
        assert text == reference_collection_text(trace)
        assert_reads_like_reference(text)


def _int_variants(value: int) -> list:
    """Spellings of an intensity that int() reads but the writer never writes."""
    text = str(value)
    return [f" {text}", f"{text} ", f"0{text}", f"+{text}", f"-{text}", f"{text[0]}_{text}",
            str(value + 1024), "-1", "1024", "1023 ", "00", "99999999999999999999"]


_BAD_ROW_KINDS = ["blank", "no_comma", "tail", "int", "label", "float", "fields", "crlf", "cr"]


@st.composite
def mutated_codec_texts(draw):
    """A written trace with bad or odd rows, placed around block boundaries."""
    block = draw(st.sampled_from([1, 2, 3, 7, ROW_BLOCK]))
    n = draw(st.sampled_from([1, 5, 23]) if block < ROW_BLOCK else st.just(2 * ROW_BLOCK + 3))
    lines = list(_codec_lines(n, draw(st.integers(0, 2))))
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
            lines[row] = line[:-1] + draw(st.sampled_from(["x", " ", ",", "\t"])) + "\n"
        elif kind == "int":
            pos = draw(st.integers(2, 6))
            if fields[pos].isdigit():
                fields[pos] = draw(st.sampled_from(_int_variants(int(fields[pos]))))
        elif kind == "label":
            fields[7] = draw(st.sampled_from(
                [fields[7].upper(), fields[7].title(), f" {fields[7]}", f"{fields[7]} ",
                 "jump", "", "relax\t", "Transition"]
            ))
        elif kind == "float":
            pos = draw(st.integers(0, 1))
            fields[pos] = draw(st.sampled_from(
                [f" {fields[pos]}", f"{fields[pos]} ", "x", "", "nan", "inf", "1e999", "1_0",
                 "0x10", f"+{fields[pos]}"]
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


@settings(deadline=None, max_examples=200)
@given(mutated_codec_texts())
def test_reader_matches_row_reference_on_odd_rows(case):
    block, text = case
    with patch.object(ingest, "ROW_BLOCK", block):
        assert_reads_like_reference(text)


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
    ]
    for block in (1, 2, 4, ROW_BLOCK):
        with patch.object(ingest, "ROW_BLOCK", block):
            for case in cases:
                assert_reads_like_reference(case)
