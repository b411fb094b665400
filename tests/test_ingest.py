import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, make_trace, random_rows
from lightband import mlp
from lightband.evaluate import confusion, write_counts_csv
from lightband.ingest import (
    COLLECTION_HEADER,
    parse_serial_line,
    read_collection_csv,
    read_frames_from_line_stream,
    write_collection_csv,
)
from lightband.signature import SignatureTable, read_signature_csv, write_signature_csv
from lightband.simulate import DEFAULT_PROFILES, read_profile_csv, read_script, write_profile_csv
from lightband.types import GestureLabel, LabeledTrace


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


def test_read_frames_from_line_stream():
    lines = ["100,200,300,400,500\n", "101,201,301,401,501\r\n", "102,202,302,402,502\n"]
    trace = read_frames_from_line_stream(iter(lines), interval=0.02)
    assert [f.t_rel for f in trace.frames] == [0.0, 0.02, 0.04]
    assert all(label is R for label in trace.labels)
    assert trace.frames[1].channels == (101, 201, 301, 401, 501)


def test_read_frames_from_line_stream_empty():
    assert len(read_frames_from_line_stream(iter([]), interval=0.02)) == 0


def test_read_frames_from_line_stream_bad_line_number():
    lines = ["1,2,3,4,5\n", "1,2,3\n"]
    with pytest.raises(ValueError, match="line 2"):
        read_frames_from_line_stream(iter(lines), interval=0.02)


def test_read_frames_from_line_stream_bad_interval():
    with pytest.raises(ValueError, match="interval"):
        read_frames_from_line_stream(iter([]), interval=0.0)


_MODEL = mlp.init_model(mlp.MlpConfig(hidden=(3,), output_dim=2), np.random.default_rng(0))

# format -> (write(sink) or None, read(source) or None, text used when no writer)
IO_FORMATS = {
    "collection": (
        lambda sink: write_collection_csv(make_trace([[1, 2, 3, 4, 5]] * 3, [R, T, E]), sink),
        read_collection_csv,
        None,
    ),
    "serial": (None, read_frames_from_line_stream, "1,2,3,4,5\r\n6,7,8,9,10\n"),
    "signature": (
        lambda sink: write_signature_csv(
            SignatureTable(deltas={(g, s): -s * 10.5 for g in (E, F, O) for s in (2, 3, 4)}),
            sink,
        ),
        read_signature_csv,
        None,
    ),
    "profile": (lambda sink: write_profile_csv(DEFAULT_PROFILES, sink), read_profile_csv, None),
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
    "counts": (lambda sink: write_counts_csv(confusion([R, E, T], [R, T, E]), sink), None, None),
}


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
