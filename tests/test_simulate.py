import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, file_lines
from lightband.ingest import read_collection_csv, write_collection_csv
from lightband.simulate import (
    DEFAULT_PROFILES,
    GestureProfile,
    SimConfig,
    critical_angle,
    read_profile_csv,
    read_script,
    synth_trace,
    write_profile_csv,
)
from lightband.types import parse_label, segment_trace


def test_critical_angle_glass_fiber():
    angle = critical_angle(1.444, 1.000350)
    assert angle == pytest.approx(43.85, abs=0.05)


def test_critical_angle_root_two():
    assert critical_angle(1.0, 1.0 / math.sqrt(2)) == pytest.approx(45.0)


def test_critical_angle_errors():
    with pytest.raises(ValueError, match="total internal reflection"):
        critical_angle(1.0, 1.0)
    with pytest.raises(ValueError, match="total internal reflection"):
        critical_angle(1.0, 1.5)
    with pytest.raises(ValueError, match="positive"):
        critical_angle(-1.0, 0.5)


def test_profile_validation():
    with pytest.raises(ValueError, match="scriptable"):
        GestureProfile(R, (-1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonzero"):
        GestureProfile(E, (0.0,) * 5)
    with pytest.raises(ValueError, match="5 deltas"):
        GestureProfile(E, (-1.0,))


def test_sim_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SimConfig(gesture_hold=0.0)
    with pytest.raises(ValueError, match="baseline"):
        SimConfig(baseline_levels=(0.0, 500, 500, 500, 500))
    with pytest.raises(ValueError, match="5 baseline"):
        SimConfig(baseline_levels=(500, 500))


def test_empty_script_is_one_relax_hold():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0)
    trace = synth_trace([], DEFAULT_PROFILES, cfg)
    assert len(trace) == round(cfg.relax_hold / cfg.sample_interval)
    assert all(label is R for label in trace.labels)
    assert all(f.channels == (340, 760, 650, 800, 930) for f in trace.frames)


def test_zero_noise_extend_plateau_matches_calibration():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0, gesture_hold=1.0, relax_hold=1.0)
    trace = synth_trace([E], DEFAULT_PROFILES, cfg)
    segments = segment_trace(trace)
    assert [s[0] for s in segments] == [R, T, E, T]
    _, start, end = segments[2]
    plateau = {f.channels[3] for f in trace.frames[start:end]}
    assert plateau == {577}  # 800 relax level dipping by 223


def test_zero_noise_plateau_deltas_equal_profile():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0, gesture_hold=1.0, relax_hold=1.0)
    trace = synth_trace([E, F, O], DEFAULT_PROFILES, cfg)
    segments = segment_trace(trace)
    profiles = {p.gesture: p for p in DEFAULT_PROFILES}
    for idx, (label, start, end) in enumerate(segments):
        if label not in profiles:
            continue
        _, r_start, r_end = segments[idx - 2]  # relax precedes the up-ramp
        for ch in range(5):
            relax_mean = sum(f.channels[ch] for f in trace.frames[r_start:r_end]) / (
                r_end - r_start
            )
            gesture_mean = sum(f.channels[ch] for f in trace.frames[start:end]) / (
                end - start
            )
            assert gesture_mean - relax_mean == profiles[label].deltas[ch]


def test_segment_structure_matches_script():
    cfg = SimConfig(gesture_hold=0.3, relax_hold=0.2, transition_time=0.1, seed=3)
    trace = synth_trace([E, F, O, E], DEFAULT_PROFILES, cfg)
    labels = [s[0] for s in segment_trace(trace)]
    assert labels == [R, T, E, T, R, T, F, T, R, T, O, T, R, T, E, T]


def test_determinism_under_seed():
    cfg = SimConfig(gesture_hold=0.5, relax_hold=0.3, seed=42)
    a = synth_trace([E, F], DEFAULT_PROFILES, cfg)
    b = synth_trace([E, F], DEFAULT_PROFILES, cfg)
    assert a.frames == b.frames and a.labels == b.labels
    c = synth_trace([E, F], DEFAULT_PROFILES, SimConfig(gesture_hold=0.5, relax_hold=0.3, seed=43))
    assert c.frames != a.frames


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 50.0), st.floats(0.0, 2.0))
def test_channels_always_in_range(seed, noise, drift):
    cfg = SimConfig(
        gesture_hold=0.3, relax_hold=0.2, transition_time=0.1,
        noise_sigma=noise, drift=drift, seed=seed,
        baseline_levels=(30.0, 990.0, 500.0, 800.0, 100.0),
    )
    profiles = (
        GestureProfile(E, (-25.0, -100.0, -300.0, -223.0, 20.0)),
        GestureProfile(F, (10.0, 30.0, -400.0, -100.0, -90.0)),
    )
    trace = synth_trace([E, F], profiles, cfg)
    for frame in trace.frames:
        assert all(0 <= v <= 1023 for v in frame.channels)


def test_missing_profile_error():
    with pytest.raises(ValueError, match="no profile"):
        synth_trace([O], DEFAULT_PROFILES[:2], SimConfig())


def test_out_of_range_configuration_error():
    cfg = SimConfig(baseline_levels=(100.0, 760.0, 650.0, 800.0, 930.0))
    profiles = (GestureProfile(E, (-150.0, -150.0, -180.0, -223.0, -12.0)),)
    with pytest.raises(ValueError, match="channel 1"):
        synth_trace([E], profiles, cfg)


def test_generated_trace_round_trips_through_csv():
    cfg = SimConfig(gesture_hold=0.3, relax_hold=0.2, transition_time=0.1, seed=11)
    trace = synth_trace([E, O], DEFAULT_PROFILES, cfg)
    sink = io.StringIO()
    write_collection_csv(trace, sink)
    back = read_collection_csv(io.StringIO(sink.getvalue()))
    assert back.frames == trace.frames
    assert back.labels == trace.labels


def test_read_script():
    assert read_script(io.StringIO("extend\nfist\n\none\n")) == [E, F, O]
    with pytest.raises(ValueError, match="line 2"):
        read_script(io.StringIO("extend\nrelax\n"))
    with pytest.raises(ValueError, match="line 1"):
        read_script(io.StringIO("wave\n"))


_SCRIPT_LINES = st.sampled_from(["extend", "fist", "one", "EXTEND", " Fist ", "oNe\t"])
_BAD_SCRIPT_LINES = st.one_of(
    st.sampled_from([
        "", " ", "relax", "TRANSITION", "wave", "extend fist", "extend,", "ext", "\x00",
        "\u2028", "fist\x1cone", "0", "-1", "nan",
    ]),
    st.text(max_size=8),
)


@st.composite
def mutated_scripts(draw):
    """A valid script with one line replaced, added, deleted or doubled."""
    lines = draw(st.lists(_SCRIPT_LINES, min_size=1, max_size=8))
    row = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["replace", "add", "delete", "duplicate"]))
    if kind == "replace":
        lines[row] = draw(_BAD_SCRIPT_LINES)
    elif kind == "add":
        lines.insert(row, draw(_BAD_SCRIPT_LINES))
    elif kind == "delete":
        del lines[row]
    else:
        lines.insert(row, lines[row])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=60), st.text(max_size=60), mutated_scripts()))
def test_read_script_random_input_raises_only_value_error(data):
    if isinstance(data, bytes):
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    else:
        stream = io.StringIO(data, newline="")
    try:
        gestures = read_script(stream)
    except ValueError:  # UnicodeDecodeError is one too
        return
    # what a script that reads must hold: its non-blank lines as labels
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    assert gestures == [parse_label(line) for line in file_lines(text) if line.strip()]
    assert all(g in (E, F, O) for g in gestures)


def test_profile_csv_round_trip():
    sink = io.StringIO()
    write_profile_csv(DEFAULT_PROFILES, sink)
    back = read_profile_csv(io.StringIO(sink.getvalue()))
    assert set(back) == set(DEFAULT_PROFILES)


def test_read_profile_csv_rejects_duplicate_entry():
    text = "gesture,sensor,delta\nfist,1,-30.0\nfist,1,-35.0\n"
    with pytest.raises(ValueError, match=r"^line 3: duplicate entry for \(FIST, sensor 1\)$"):
        read_profile_csv(io.StringIO(text))


def reference_synth(script, profiles, cfg):
    """The per-frame generator: draw, step the levels and round one frame at a time.

    Returns (channel rows, labels).
    """
    by_gesture = {p.gesture: p for p in profiles}
    n_ramp = cfg.frames_for(cfg.transition_time)
    ramp_up = [j / (n_ramp + 1) for j in range(1, n_ramp + 1)]
    relax = (R, None, [0.0] * cfg.frames_for(cfg.relax_hold))
    sections = [] if script else [relax]
    for gesture in script:
        sections += [
            relax,
            (T, gesture, ramp_up),
            (gesture, gesture, [1.0] * cfg.frames_for(cfg.gesture_hold)),
            (T, gesture, ramp_up[::-1]),
        ]
    rng = np.random.default_rng(cfg.seed)
    levels = np.array(cfg.baseline_levels, dtype=float)
    rows, labels = [], []
    for label, gesture, progresses in sections:
        deltas = np.array(by_gesture[gesture].deltas) if gesture else np.zeros(5)
        for progress in progresses:
            levels = levels + rng.normal(0.0, cfg.drift, size=5)
            values = levels + deltas * progress + rng.normal(0.0, cfg.noise_sigma, size=5)
            rows.append([int(v) for v in np.clip(np.rint(values), 0, 1023)])
            labels.append(label)
    return rows, labels


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.sampled_from([E, F, O]), max_size=4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    st.sampled_from([0.02, 0.01, 0.05]),
)
def test_synth_trace_equals_per_frame_reference(script, seed, drift, noise, interval):
    cfg = SimConfig(
        sample_interval=interval, gesture_hold=0.3, relax_hold=0.2, transition_time=0.1,
        noise_sigma=noise, drift=drift, seed=seed,
    )
    trace = synth_trace(script, DEFAULT_PROFILES, cfg)
    rows, labels = reference_synth(script, DEFAULT_PROFILES, cfg)
    assert trace.channels.tolist() == rows
    assert trace.labels == tuple(labels)
    times = [i * interval for i in range(len(rows))]
    assert trace.t_rel.tolist() == times
    assert trace.t_unix.tolist() == [cfg.start_unix + t for t in times]
