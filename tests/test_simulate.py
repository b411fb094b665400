import io
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, file_lines, members, one_shot_synth_trace, oracle_examples
from lightband import simulate
from lightband.ingest import read_collection_csv, write_collection_csv
from lightband.signature import SignatureTable, read_signature_csv, write_signature_csv
from lightband.simulate import (
    ALL_SENSORS,
    DEFAULT_PROFILES,
    SimConfig,
    critical_angle,
    read_script,
    synth_trace,
)
from lightband.types import ROW_BLOCK, parse_label, segment_trace

# the oracle step (pytest -m oracle) runs every test in this module
pytestmark = pytest.mark.oracle


def profile_table(rows, sensors=ALL_SENSORS):
    """A profile table from {gesture: deltas in sensor order}."""
    return SignatureTable(
        deltas={(g, s): d for g, deltas in rows.items() for s, d in zip(sensors, deltas)},
    )


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
    for n_medium, n_cladding in ((math.nan, 1.0), (math.inf, 1.0), (1.444, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            critical_angle(n_medium, n_cladding)


def test_profile_validation():
    # an all-zero gesture is rejected, also one the script does not use
    with pytest.raises(ValueError, match=r"^EXTEND profile: at least one delta must be nonzero$"):
        synth_trace([E], profile_table({E: (0.0, -0.0, 0.0, 0.0, 0.0)}))
    profiles = profile_table({E: (-100.0,), F: (0.0,)}, sensors=(2,))
    with pytest.raises(ValueError, match="FIST profile"):
        synth_trace([E], profiles)


def test_sim_config_validation():
    with pytest.raises(ValueError, match="positive"):
        SimConfig(gesture_hold=0.0)
    with pytest.raises(ValueError, match="baseline"):
        SimConfig(baseline_levels=(0.0, 500, 500, 500, 500))
    with pytest.raises(ValueError, match="5 baseline"):
        SimConfig(baseline_levels=(500, 500))
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        SimConfig(seed=-1)
    # not an integer, or a bool: refused before synth_trace hands it to numpy
    for seed in (1.5, True, "1", None):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            SimConfig(seed=seed)
    # a numpy integer is stored as the Python int it equals
    assert type(SimConfig(seed=np.int64(1)).seed) is int


@pytest.mark.parametrize("name", ["noise_sigma", "drift"])
def test_sim_config_refuses_a_sigma_past_full_scale(name):
    # the full scale is the largest sigma kept; past it every reading
    # saturates at 0 or 1023
    cfg = SimConfig(gesture_hold=0.3, relax_hold=0.2, transition_time=0.1, **{name: 1023.0})
    assert len(synth_trace([E], DEFAULT_PROFILES, cfg)) > 0
    for value in (1023.5, 1e300):
        message = f"^{name} must be at most the full scale 1023, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SimConfig(**{name: value})


def test_empty_script_is_one_relax_hold():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0)
    trace = synth_trace([], DEFAULT_PROFILES, cfg)
    assert len(trace) == round(cfg.relax_hold / cfg.sample_interval)
    assert all(label is R for label in members(trace.labels))
    assert all(f.channels == (340, 760, 650, 800, 930) for f in trace.frames)


def test_zero_noise_extend_plateau_matches_calibration():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0, gesture_hold=1.0, relax_hold=1.0)
    trace = synth_trace([E], DEFAULT_PROFILES, cfg)
    segments = segment_trace(trace)
    assert [s[0] for s in segments] == [R, T, E, T]
    _, start, end = segments[2]
    plateau = set(trace.channels[start:end, 3].tolist())
    assert plateau == {577}  # 800 relax level dipping by 223


def test_zero_noise_plateau_deltas_equal_profile():
    cfg = SimConfig(noise_sigma=0.0, drift=0.0, gesture_hold=1.0, relax_hold=1.0)
    trace = synth_trace([E, F, O], DEFAULT_PROFILES, cfg)
    segments = segment_trace(trace)
    for idx, (label, start, end) in enumerate(segments):
        if label not in (E, F, O):
            continue
        _, r_start, r_end = segments[idx - 2]  # relax precedes the up-ramp
        for ch in range(5):
            relax_mean = sum(trace.channels[r_start:r_end, ch].tolist()) / (r_end - r_start)
            gesture_mean = sum(trace.channels[start:end, ch].tolist()) / (end - start)
            assert gesture_mean - relax_mean == DEFAULT_PROFILES.deltas[(label, ch + 1)]


def test_segment_structure_matches_script():
    cfg = SimConfig(gesture_hold=0.3, relax_hold=0.2, transition_time=0.1, seed=3)
    trace = synth_trace([E, F, O, E], DEFAULT_PROFILES, cfg)
    labels = [s[0] for s in segment_trace(trace)]
    assert labels == [R, T, E, T, R, T, F, T, R, T, O, T, R, T, E, T]


def test_determinism_under_seed():
    cfg = SimConfig(gesture_hold=0.5, relax_hold=0.3, seed=42)
    a = synth_trace([E, F], DEFAULT_PROFILES, cfg)
    b = synth_trace([E, F], DEFAULT_PROFILES, cfg)
    assert list(a.frames) == list(b.frames) and members(a.labels) == members(b.labels)
    c = synth_trace([E, F], DEFAULT_PROFILES, SimConfig(gesture_hold=0.5, relax_hold=0.3, seed=43))
    assert list(c.frames) != list(a.frames)


@settings(deadline=None, max_examples=oracle_examples(15))
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 50.0), st.floats(0.0, 2.0))
def test_channels_always_in_range(seed, noise, drift):
    cfg = SimConfig(
        gesture_hold=0.3, relax_hold=0.2, transition_time=0.1,
        noise_sigma=noise, drift=drift, seed=seed,
        baseline_levels=(30.0, 990.0, 500.0, 800.0, 100.0),
    )
    profiles = profile_table({
        E: (-25.0, -100.0, -300.0, -223.0, 20.0),
        F: (10.0, 30.0, -400.0, -100.0, -90.0),
    })
    trace = synth_trace([E, F], profiles, cfg)
    for frame in trace.frames:
        assert all(0 <= v <= 1023 for v in frame.channels)


def test_missing_profile_error():
    with pytest.raises(ValueError, match="no profile"):
        synth_trace([O], profile_table({E: (-1.0,), F: (-1.0,)}, sensors=(1,)), SimConfig())


def test_out_of_range_configuration_error():
    cfg = SimConfig(baseline_levels=(100.0, 760.0, 650.0, 800.0, 930.0))
    profiles = profile_table({E: (-150.0, -150.0, -180.0, -223.0, -12.0)})
    with pytest.raises(ValueError, match="channel 1"):
        synth_trace([E], profiles, cfg)


def test_generated_trace_round_trips_through_csv():
    cfg = SimConfig(gesture_hold=0.3, relax_hold=0.2, transition_time=0.1, seed=11)
    trace = synth_trace([E, O], DEFAULT_PROFILES, cfg)
    sink = io.StringIO()
    write_collection_csv(trace, sink)
    back = read_collection_csv(io.StringIO(sink.getvalue()))
    assert list(back.frames) == list(trace.frames)
    assert members(back.labels) == members(trace.labels)


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


@settings(max_examples=oracle_examples(300))
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
    write_signature_csv(DEFAULT_PROFILES, sink)
    assert sink.getvalue().splitlines()[1:6] == [
        "extend,1,-20.0", "extend,2,-150.0", "extend,3,-180.0", "extend,4,-223.0", "extend,5,-12.0",
    ]
    assert read_signature_csv(io.StringIO(sink.getvalue())) == DEFAULT_PROFILES


def reference_synth(script, profiles, cfg):
    """The per-frame generator: draw, step the levels and round one frame at a time.

    Returns (channel rows, labels).
    """
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
        deltas = np.array([profiles.deltas.get((gesture, s), 0.0) for s in range(1, 6)])
        for progress in progresses:
            levels = levels + rng.normal(0.0, cfg.drift, size=5)
            values = levels + deltas * progress + rng.normal(0.0, cfg.noise_sigma, size=5)
            rows.append([int(v) for v in np.clip(np.rint(values), 0, 1023)])
            labels.append(label)
    return rows, labels


@settings(deadline=None, max_examples=oracle_examples(40))
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
    assert members(trace.labels) == labels
    times = [i * interval for i in range(len(rows))]
    assert trace.t_rel.tolist() == times
    assert trace.t_unix.tolist() == [cfg.start_unix + t for t in times]


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_synth_trace_equals_one_shot_draw_at_block_edges(n):
    # one gesture cycle is 270 frames at these holds; the relax hold fills up to n
    cfg = SimConfig(relax_hold=(n - 270) * 0.02, noise_sigma=7.5, drift=0.3, seed=n)
    trace = synth_trace([F], DEFAULT_PROFILES, cfg)
    assert len(trace) == n
    reference = one_shot_synth_trace([F], DEFAULT_PROFILES, cfg)
    assert trace.channels.tobytes() == reference.channels.tobytes()
    assert trace.t_rel.tobytes() == reference.t_rel.tobytes()
    assert trace.t_unix.tobytes() == reference.t_unix.tobytes()
    assert members(trace.labels) == members(reference.labels)


@settings(deadline=None, max_examples=oracle_examples(40))
@given(
    st.lists(st.sampled_from([E, F, O]), max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 40.0),
    st.floats(0.0, 3.0),
    st.sampled_from([1, 2, 3, 7, 64]),
)
def test_synth_trace_equals_one_shot_draw_in_small_blocks(script, seed, noise, drift, block):
    cfg = SimConfig(
        gesture_hold=0.3, relax_hold=0.2, transition_time=0.1,
        noise_sigma=noise, drift=drift, seed=seed,
    )
    with patch.object(simulate, "ROW_BLOCK", block):
        trace = synth_trace(script, DEFAULT_PROFILES, cfg)
    assert trace == one_shot_synth_trace(script, DEFAULT_PROFILES, cfg)
