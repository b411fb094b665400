import io
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E, F, O, R, T, ReferenceTracker, flat_rows, make_trace, members
from lightband.baseline import BaselineConfig, BaselineTracker
from lightband.signature import (
    SIGNATURE_CSV_HEADER,
    ClassifierState,
    SignatureTable,
    classify_frame,
    classify_trace,
    generate_signatures,
    read_signature_csv,
    write_signature_csv,
)
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace
from lightband.types import GESTURES, GestureLabel, LabeledTrace, segment_trace


def table_from_profiles(profiles=DEFAULT_PROFILES, active=(2, 3, 4)):
    deltas = {
        (gesture, sensor): profiles.deltas[(gesture, sensor)]
        for gesture, _ in profiles.rows
        for sensor in active
    }
    return SignatureTable(deltas=deltas)


SMALL_TABLE = SignatureTable(
    deltas={
        (E, 2): -100.0, (E, 3): -150.0, (E, 4): -223.0,
        (F, 2): -200.0, (F, 3): -80.0, (F, 4): -120.0,
        (O, 2): -50.0, (O, 3): -120.0, (O, 4): -160.0,
    },
)


def frame_with_deltas(deltas, baseline=800, trace_index=0):
    row = [baseline + deltas.get(s, 0) for s in range(1, 6)]
    return next(make_trace([row], [R], interval=0.02).frames)


def test_table_validation():
    with pytest.raises(ValueError, match=r"^missing entry for \(EXTEND, sensor 4\)$"):
        SignatureTable(deltas={(E, 2): -100.0, (E, 3): -150.0, (F, 4): -1.0})
    with pytest.raises(ValueError, match=r"^missing entry for \(FIST, sensor 2\)$"):
        SignatureTable(deltas={(E, 2): -100.0, (E, 3): -150.0, (F, 3): -1.0})
    with pytest.raises(ValueError, match="signature"):
        SignatureTable(deltas={(R, 2): -1.0, (R, 3): -1.0, (R, 4): -1.0})
    with pytest.raises(ValueError, match="finite"):
        SignatureTable(deltas={(E, s): float("nan") for s in (2, 3, 4)})


# (row of a signature file, the entry it holds, the error both are refused with)
BAD_ENTRIES = [
    ("extend,7,-1.0", (E, 7, -1.0), "sensor index 7 outside 1..5"),
    ("extend,0,-1.0", (E, 0, -1.0), "sensor index 0 outside 1..5"),
    ("relax,2,-1.0", (R, 2, -1.0), "RELAX cannot carry a signature"),
    ("transition,2,-1.0", (T, 2, -1.0), "TRANSITION cannot carry a signature"),
    ("extend,2,nan", (E, 2, math.nan), "delta for (EXTEND, sensor 2) must be finite, got nan"),
    ("fist,3,-inf", (F, 3, -math.inf), "delta for (FIST, sensor 3) must be finite, got -inf"),
]


@pytest.mark.parametrize("row, entry, message", BAD_ENTRIES)
def test_table_and_file_refuse_an_entry_with_one_message(row, entry, message):
    gesture, sensor, delta = entry
    with pytest.raises(ValueError) as built:
        SignatureTable(deltas={(gesture, sensor): delta})
    assert str(built.value) == message
    text = f"{SIGNATURE_CSV_HEADER}\n{row}\nextend,2,-1.0\n"
    with pytest.raises(ValueError) as read:
        read_signature_csv(io.StringIO(text))
    assert str(read.value) == f"line 2: {message}"


@pytest.mark.parametrize("sensor", [2.0, True, "2", np.float32(2.0)])
def test_table_refuses_a_sensor_index_that_is_not_an_int(sensor):
    with pytest.raises(ValueError) as caught:
        SignatureTable(deltas={(E, sensor): -1.0})
    assert str(caught.value) == f"sensor index must be an integer, got {sensor!r}"


def test_table_sensors_are_those_its_deltas_name_sorted():
    table = SignatureTable(deltas={(F, s): -1.0 for s in (5, 1, 3)})
    assert table.active_sensors == (1, 3, 5)
    assert table.rows == ((F, (-1.0, -1.0, -1.0)),)
    assert SignatureTable(deltas={}).active_sensors == ()


def trace_with_pairs(rows, labels):
    """rows and labels (ending in a gesture), then a relax/FIST and a
    relax/ONE pair, so that every gesture has a relax/gesture pair."""
    tail = flat_rows(800, 10) + flat_rows(700, 10) + flat_rows(800, 10) + flat_rows(650, 10)
    return make_trace(rows + tail, labels + [R] * 10 + [F] * 10 + [R] * 10 + [O] * 10)


def test_generate_signature_from_segment_means():
    rows = (
        flat_rows(800, 40)
        + [[800, 750, 720, 690, 800]] * 10
        + [[800, 700, 650, 577, 800]] * 40
    )
    trace = trace_with_pairs(rows, [R] * 40 + [T] * 10 + [E] * 40)
    table = generate_signatures([trace])
    assert table.deltas == {
        (E, 2): -100.0, (E, 3): -150.0, (E, 4): -223.0,
        (F, 2): -100.0, (F, 3): -100.0, (F, 4): -100.0,
        (O, 2): -150.0, (O, 3): -150.0, (O, 4): -150.0,
    }
    assert table.active_sensors == (2, 3, 4)


def test_generate_signature_averages_pairs():
    rows = flat_rows(800, 10) + flat_rows(700, 10) + flat_rows(800, 10) + flat_rows(680, 10)
    trace = trace_with_pairs(rows, [R] * 10 + [E] * 10 + [R] * 10 + [E] * 10)
    table = generate_signatures([trace])
    assert table.deltas[(E, 2)] == -110.0


def test_generate_signature_table_is_the_same_whatever_the_sensor_order():
    trace = synth_trace([E, F, O], DEFAULT_PROFILES, SimConfig(seed=3))
    table = generate_signatures([trace], (4, 2, 5, 3))
    assert table == generate_signatures([trace], (2, 3, 4, 5))
    assert table.active_sensors == (2, 3, 4, 5)
    assert table == read_signature_csv(io.StringIO(_signature_text(table)))


def test_generate_signature_no_pairs():
    trace = make_trace(flat_rows(800, 20), [R] * 10 + [E] * 10)
    with pytest.raises(ValueError, match="^no relax/gesture pairs found for FIST$"):
        generate_signatures([trace])


def test_generate_signature_requires_adjacent_relax():
    # EXTEND preceded by FIST, not RELAX: no usable pair for EXTEND
    rows = flat_rows(800, 10) + flat_rows(700, 10) + flat_rows(650, 10)
    trace = trace_with_pairs(rows, [R] * 10 + [F] * 10 + [E] * 10)
    with pytest.raises(ValueError, match="^no relax/gesture pairs found for EXTEND$"):
        generate_signatures([trace])


def test_generate_signature_short_segment():
    rows = flat_rows(800, 3) + flat_rows(700, 10)
    trace = trace_with_pairs(rows, [R] * 3 + [E] * 10)
    with pytest.raises(ValueError, match="shorter"):
        generate_signatures([trace])


def test_classify_frame_matches_learned_deltas():
    frame = frame_with_deltas({2: -100, 3: -150, 4: -223})
    state = ClassifierState()
    assert classify_frame(frame, [800.0] * 5, SMALL_TABLE, state) is E


def test_classify_frame_zero_deltas_relax():
    frame = frame_with_deltas({})
    state = ClassifierState()
    assert classify_frame(frame, [800.0] * 5, SMALL_TABLE, state) is R


def test_classify_frame_transition_smoothing():
    state = ClassifierState()
    extend = frame_with_deltas({2: -100, 3: -150, 4: -223})
    relax = frame_with_deltas({})
    for _ in range(12):
        assert classify_frame(extend, [800.0] * 5, SMALL_TABLE, state) is E
    # raw label flips to RELAX: the next 10 emissions are TRANSITION
    for _ in range(10):
        assert classify_frame(relax, [800.0] * 5, SMALL_TABLE, state) is T
    assert classify_frame(relax, [800.0] * 5, SMALL_TABLE, state) is R


def test_classify_frame_tie_break_min_relative_error():
    table = SignatureTable(
        deltas={
            (E, 2): -100.0, (E, 3): -100.0, (E, 4): -100.0,
            (F, 2): -105.0, (F, 3): -105.0, (F, 4): -105.0,
        },
    )
    frame = frame_with_deltas({2: -104, 3: -104, 4: -104})
    assert classify_frame(frame, [800.0] * 5, table, ClassifierState()) is F


def test_signature_table_deltas_read_only():
    source = {(g, s): -100.0 for g in (E, F, O) for s in (2, 3, 4)}
    table = SignatureTable(deltas=source)
    with pytest.raises(TypeError):
        del table.deltas[(E, 3)]
    with pytest.raises(TypeError):
        table.deltas[(E, 3)] = 0.0
    source[(E, 3)] = 0.0  # the table keeps its own copy
    assert table.deltas[(E, 3)] == -100.0
    assert table.rows == tuple((g, (-100.0,) * 3) for g in (E, F, O))


def test_classify_frame_absolute_floor():
    # there is no absolute floor: the band is tolerance * |signature| alone
    table = SignatureTable(deltas={(E, s): -5.0 for s in (2, 3, 4)})
    frame = frame_with_deltas({2: -6, 3: -6, 4: -6})
    assert classify_frame(frame, [800.0] * 5, table, ClassifierState()) is R


def brute_force_classify(frames, baselines, deltas, active, tolerance, horizon):
    """Reference: re-derive every band per frame and keep the whole raw history.

    Returns (emitted labels, raw labels).
    """
    emitted, raws = [], []
    for frame, base in zip(frames, baselines):
        matches = []
        for gesture in GESTURES:
            if (gesture, active[0]) not in deltas:
                continue
            errors = []
            for sensor in active:
                sig = deltas[(gesture, sensor)]
                err = abs((frame.channels[sensor - 1] - base[sensor - 1]) - sig)
                if err > tolerance * abs(sig):
                    break
                errors.append(err / abs(sig) if sig != 0 else 0.0)
            else:
                matches.append((sum(errors) / len(active), gesture))
        # min keeps the first of equal errors, i.e. the earliest gesture
        raw = min(matches, key=lambda m: m[0])[1] if matches else R
        recent = raws[-horizon:]
        emitted.append(T if any(r is not raw for r in recent) else raw)
        raws.append(raw)
    return emitted, raws


_signature_value = st.one_of(st.just(0.0), st.floats(-300.0, 300.0))


@st.composite
def classify_cases(draw):
    active = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True)))
    gestures = draw(st.lists(st.sampled_from(GESTURES), min_size=1, max_size=3, unique=True))
    deltas = {(g, s): draw(_signature_value) for g in gestures for s in active}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, baselines = [], []
    for _ in range(draw(st.integers(1, 40))):
        base = rng.uniform(0.0, 1023.0, size=5)
        if rng.random() < 0.5:  # whole baselines let zero signatures match exactly
            base = np.rint(base)
        row = rng.integers(0, 1024, size=5)
        target = rng.integers(-1, len(gestures))
        if target >= 0:  # land near the target's signature
            for s in active:
                scale = rng.choice([1.0, 0.95, 1.05, 0.8, 1.3])
                value = base[s - 1] + deltas[(gestures[target], s)] * scale
                row[s - 1] = np.clip(np.rint(value), 0, 1023)
        frames.append(next(make_trace([[int(v) for v in row]], [R]).frames))
        baselines.append([float(v) for v in base])
    tolerance = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 2.0)))
    horizon = draw(st.integers(1, 12))
    table = SignatureTable(deltas=deltas)
    return table, frames, baselines, tolerance, horizon


@settings(deadline=None, max_examples=200)
@given(classify_cases())
def test_classify_frame_matches_brute_force(case):
    table, frames, baselines, tolerance, horizon = case
    state = ClassifierState(tolerance=tolerance, transition_horizon=horizon)
    emitted, raws = [], []
    for frame, base in zip(frames, baselines):
        emitted.append(classify_frame(frame, base, table, state))
        raws.append(state.recent_labels[-1])
    expected = brute_force_classify(
        frames, baselines, dict(table.deltas), table.active_sensors, tolerance, horizon
    )
    assert (emitted, raws) == expected


@st.composite
def classify_trace_cases(draw):
    """A random table and a trace of plateaus near its signatures, plus a
    baseline config, classifier settings and a pre-seeded raw history."""
    active = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True)))
    gestures = draw(st.lists(st.sampled_from(GESTURES), min_size=0, max_size=3, unique=True))
    deltas = {(g, s): draw(_signature_value) for g in gestures for s in active}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = rng.integers(300, 700, size=5)
    rows, labels = [], []
    for _ in range(draw(st.integers(0, 12))):
        target = rng.integers(-1, len(gestures))
        shift = np.zeros(5)
        if target >= 0:
            scale = rng.choice([1.0, 0.95, 1.05, 0.8])
            for s in active:
                shift[s - 1] = deltas[(gestures[target], s)] * scale
        for _ in range(rng.integers(1, 40)):
            noise = rng.integers(-2, 3, size=5) * rng.integers(0, 2)
            rows.append(np.clip(np.rint(level + shift + noise), 0, 1023).astype(int).tolist())
            labels.append(R)
    alpha = draw(st.sampled_from([0.2, 1.0, 0.05]))
    window = draw(st.sampled_from([4.0, 0.1, 0.02, 0.5]))
    tolerance = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 2.0)))
    horizon = draw(st.integers(1, 12))
    prior = draw(st.lists(st.sampled_from([R, E, F, O]), max_size=15))
    return (
        make_trace(rows, labels),
        SignatureTable(deltas=deltas),
        BaselineConfig(alpha=alpha, window=window),
        tolerance,
        horizon,
        prior,
    )


@settings(deadline=None, max_examples=150)
@given(classify_trace_cases())
def test_classify_trace_equals_streaming_replay(case):
    trace, table, cfg, tolerance, horizon, prior = case
    batch_state = ClassifierState(tolerance, horizon, recent_labels=prior)
    got = classify_trace(trace, table, cfg, batch_state)
    replay_state = ClassifierState(tolerance, horizon, recent_labels=prior)
    tracker = BaselineTracker(cfg)
    expected = [
        classify_frame(frame, tracker.update(frame), table, replay_state)
        for frame in trace.frames
    ]
    assert members(got) == expected
    assert list(batch_state.recent_labels) == list(replay_state.recent_labels)


def reference_classify_frame(frame, baselines, table, state):
    """classify_frame with the TRANSITION check as an any() over the history:
    the reference for the streaming classifier."""
    active = table.active_sensors
    deltas = [frame.channels[sensor - 1] - baselines[sensor - 1] for sensor in active]
    best = None
    best_err = math.inf
    for gesture, sigs in table.rows:
        total_err = 0.0
        for delta, sig in zip(deltas, sigs):
            err = abs(delta - sig)
            if err > state.tolerance * abs(sig):
                break
            total_err += err / abs(sig) if sig != 0 else 0.0
        else:
            mean_err = total_err / len(active)
            if mean_err < best_err:
                best = gesture
                best_err = mean_err
    raw = best if best is not None else R
    emitted = raw
    if any(prev is not raw for prev in state.recent_labels):
        emitted = T
    state.recent_labels.append(raw)
    return emitted


@settings(deadline=None, max_examples=150)
@given(classify_trace_cases())
def test_streaming_chain_bitwise_equals_reference_chain(case):
    trace, table, cfg, tolerance, horizon, prior = case
    tracker, state = BaselineTracker(cfg), ClassifierState(tolerance, horizon, recent_labels=prior)
    ref_tracker = ReferenceTracker(cfg)
    ref_state = ClassifierState(tolerance, horizon, recent_labels=prior)
    for frame in trace.frames:
        baselines, ref_baselines = tracker.update(frame), ref_tracker.update(frame)
        assert list(map(repr, baselines)) == list(map(repr, ref_baselines))
        label = classify_frame(frame, baselines, table, state)
        assert label is reference_classify_frame(frame, ref_baselines, table, ref_state)
        assert list(state.recent_labels) == list(ref_state.recent_labels)


NOISE_FREE = SimConfig(
    gesture_hold=1.4,
    relax_hold=2.0,
    transition_time=2.4,
    noise_sigma=0.0,
    drift=0.0,
    seed=5,
)


def test_classify_trace_noise_free_script():
    trace = synth_trace([E, F, O], DEFAULT_PROFILES, NOISE_FREE)
    table = table_from_profiles()
    predicted = members(classify_trace(trace, table))
    assert len(predicted) == len(trace)
    scorable = correct = 0
    for truth, pred in zip(members(trace.labels), predicted):
        if truth is T:
            continue
        scorable += 1
        correct += truth is pred
    assert scorable > 500
    assert correct / scorable >= 0.99
    # interior of every stable segment is labeled with that segment's gesture
    horizon = ClassifierState().transition_horizon
    for label, start, end in segment_trace(trace):
        if label is T:
            continue
        for i in range(start + horizon, end):
            assert predicted[i] is label


def test_classify_trace_returns_read_only_class_indices():
    trace = synth_trace([E, F], DEFAULT_PROFILES, NOISE_FREE)
    state = ClassifierState()
    predicted = classify_trace(trace, table_from_profiles(), state=state)
    assert predicted.dtype == np.int8 and predicted.shape == (len(trace),)
    assert not predicted.flags.writeable
    assert set(predicted.tolist()) == {0, 1, 2, 4}
    assert all(type(label) is GestureLabel for label in state.recent_labels)


def test_classify_trace_deterministic():
    trace = synth_trace([E], DEFAULT_PROFILES, NOISE_FREE)
    table = table_from_profiles()
    assert members(classify_trace(trace, table)) == members(classify_trace(trace, table))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"transition_horizon": 2.5}, "transition_horizon must be an integer, got 2.5"),
        ({"transition_horizon": True}, "transition_horizon must be an integer, got True"),
        ({"transition_horizon": 0}, "transition_horizon must be at least 1"),
        ({"tolerance": float("nan")}, "tolerance must be finite"),
        ({"tolerance": -0.1}, "tolerance must be finite and non-negative"),
        (
            {"transition_horizon": sys.maxsize + 1},
            f"transition_horizon must be at most {sys.maxsize}",
        ),
        (
            {"recent_labels": [R, "relax", 1]},
            "recent label must be a GestureLabel, got 'relax'",
        ),
        ({"recent_labels": (E, 1)}, "recent label must be a GestureLabel, got 1"),
    ],
)
def test_classifier_state_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ClassifierState(**kwargs)


def test_classifier_state_takes_a_horizon_up_to_sys_maxsize():
    state = ClassifierState(transition_horizon=sys.maxsize)
    assert state.recent_labels.maxlen == sys.maxsize


def test_classify_trace_shorter_than_horizon():
    trace = make_trace(flat_rows(800, 5), [R] * 5)
    predicted = classify_trace(trace, SMALL_TABLE)
    assert len(predicted) == 5


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_classify_trace_shift_invariance(seed, c):
    rng = np.random.default_rng(seed)
    n = 120
    rows = [[int(v) for v in rng.integers(200, 700, size=5)] for _ in range(n)]
    shifted = [[v + c for v in row] for row in rows]
    table = table_from_profiles()
    a = classify_trace(make_trace(rows, [R] * n), table)
    b = classify_trace(make_trace(shifted, [R] * n), table)
    assert members(a) == members(b)


def test_transition_emissions_track_raw_changes():
    cfg = SimConfig(
        gesture_hold=1.0, relax_hold=1.0, transition_time=0.2, noise_sigma=3.0, seed=9
    )
    trace = synth_trace([E, F], DEFAULT_PROFILES, cfg)
    table = table_from_profiles()
    emitted = classify_trace(trace, table)
    # raw labels: same classifier with an empty history at every frame
    tracker = BaselineTracker(BaselineConfig())
    raw = []
    for frame in trace.frames:
        baselines = tracker.update(frame)
        raw.append(classify_frame(frame, baselines, table, ClassifierState()))
    horizon = ClassifierState().transition_horizon
    for i, label in enumerate(members(emitted)):
        changed = any(
            raw[j] is not raw[i] for j in range(max(0, i - horizon), i)
        )
        assert (label is T) == changed


# Metamorphic checks on the benchmark's signature inputs: the seed-1
# training trace's table on the 22,200-frame seed-2 evaluation trace, with
# the simulator's and the CLI's defaults.
@pytest.fixture(scope="module")
def eval_case():
    script = [E, F, O] * 20
    table = generate_signatures([synth_trace(script, DEFAULT_PROFILES, SimConfig(seed=1))])
    trace = synth_trace(script, DEFAULT_PROFILES, SimConfig(seed=2))
    return trace, table, members(classify_trace(trace, table))


def rows_of(trace, start, stop=None):
    rows = slice(start, stop)
    return LabeledTrace(trace.t_rel[rows], trace.t_unix[rows], trace.channels[rows],
                        trace.labels[rows])


@pytest.mark.parametrize("n", [1, 100, 4_321, 15_000])
def test_labels_of_a_prefix_are_the_prefix_of_the_labels(eval_case, n):
    trace, table, labels = eval_case
    head = rows_of(trace, 0, n)
    assert members(classify_trace(head, table)) == labels[:n]
    tracker, state = BaselineTracker(BaselineConfig()), ClassifierState()
    assert [classify_frame(f, tracker.update(f), table, state) for f in head.frames] == labels[:n]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 13: +1 s changes 2 labels, since rounding decides whether a "
    "frame on the 4-s window edge stays in",
)
def test_a_time_offset_changes_no_label(eval_case):
    trace, table, labels = eval_case
    assert members(classify_trace(replace(trace, t_rel=trace.t_rel + 1.0), table)) == labels


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the state carries no baseline, so a split inside an EXTEND "
    "hold changes 154 labels",
)
def test_two_chunks_through_one_state_give_the_labels_of_one_call(eval_case):
    trace, table, labels = eval_case
    state = ClassifierState()
    chunked = members(classify_trace(rows_of(trace, 0, 10_150), table, state=state))
    chunked += members(classify_trace(rows_of(trace, 10_150), table, state=state))
    assert chunked == labels


def test_signature_csv_round_trip():
    table = generate_signatures(
        [
            make_trace(
                flat_rows(800, 10) + [[700, 650, 620, 577, 750]] * 10
                + flat_rows(800, 10) + [[750, 700, 680, 640, 760]] * 10
                + flat_rows(800, 10) + [[790, 720, 700, 690, 770]] * 10,
                [R] * 10 + [E] * 10 + [R] * 10 + [F] * 10 + [R] * 10 + [O] * 10,
            )
        ]
    )
    sink = io.StringIO()
    write_signature_csv(table, sink)
    back = read_signature_csv(io.StringIO(sink.getvalue()))
    assert back == table
    assert back.active_sensors == (2, 3, 4)


def test_table_hashes_equal_to_its_read_back_and_keys_a_dict():
    sink = io.StringIO()
    write_signature_csv(DEFAULT_PROFILES, sink)
    back = read_signature_csv(io.StringIO(sink.getvalue()))
    assert back is not DEFAULT_PROFILES and back == DEFAULT_PROFILES
    assert hash(back) == hash(DEFAULT_PROFILES)
    shuffled = SignatureTable(dict(reversed(DEFAULT_PROFILES.deltas.items())))
    assert hash(shuffled) == hash(DEFAULT_PROFILES)
    other = SignatureTable({key: delta + 1.0 for key, delta in DEFAULT_PROFILES.deltas.items()})
    assert {DEFAULT_PROFILES: "default", other: "other"}[back] == "default"
    assert back in {DEFAULT_PROFILES} and other not in {DEFAULT_PROFILES}
    assert len({DEFAULT_PROFILES, back, shuffled, other}) == 2


def test_signature_csv_bad_header():
    header_error = r"^line 1: missing or malformed signature header: 'a,b,c'$"
    with pytest.raises(ValueError, match=header_error):
        read_signature_csv(io.StringIO("a,b,c\r\n"))
    with pytest.raises(ValueError, match="^missing or malformed signature header: empty input$"):
        read_signature_csv(io.StringIO(""))


def test_read_signature_csv_rejects_duplicate_entry():
    text = "gesture,sensor,delta\nextend,2,-100.0\nextend,3,-50.0\nextend,2,-5.0\n"
    with pytest.raises(ValueError, match=r"^line 4: duplicate entry for \(EXTEND, sensor 2\)$"):
        read_signature_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "active, message",
    [((0, 9), "outside 1..5"), ((6,), "outside 1..5"), ((0,), "outside 1..5"),
     ((2, -1), "outside 1..5"), ((2, 2, 3), "repeat"), ((2.0, 3, 4), "must be an integer"),
     ((2, True), "must be an integer"), (("2",), "must be an integer")],
)
def test_generate_signatures_rejects_bad_sensors_before_indexing(active, message):
    trace = make_trace(flat_rows(800, 10) + flat_rows(700, 10), [R] * 10 + [E] * 10)
    with pytest.raises(ValueError, match=message):
        generate_signatures([trace], active=active)


@st.composite
def signature_tables(draw):
    sensors = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    gestures = draw(st.lists(st.sampled_from(GESTURES), unique=True))
    deltas = st.floats(allow_nan=False, allow_infinity=False)
    return SignatureTable(deltas={(g, s): draw(deltas) for g in gestures for s in sensors})


def _signature_text(table) -> str:
    sink = io.StringIO()
    write_signature_csv(table, sink)
    return sink.getvalue()


@settings(deadline=None, max_examples=100)
@given(signature_tables())
def test_signature_csv_write_read_write_is_byte_identical(table):
    text = _signature_text(table)
    back = read_signature_csv(io.StringIO(text))
    assert back == table
    assert _signature_text(back) == text


@st.composite
def delta_dicts(draw):
    """Deltas that may or may not make a table: a full gesture-by-sensor
    grid, sometimes with an entry taken out or a stray entry (any label,
    sensor 0..6) put in."""
    sensors = draw(st.lists(st.integers(1, 5), max_size=5, unique=True))
    gestures = draw(st.lists(st.sampled_from(GESTURES), unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    deltas = {(g, s): draw(values) for g in gestures for s in sensors}
    if deltas and draw(st.booleans()):
        del deltas[draw(st.sampled_from(list(deltas)))]
    stray = st.tuples(st.sampled_from(list(GestureLabel)), st.integers(0, 6))
    for key in draw(st.lists(stray, max_size=2)):
        deltas[key] = draw(values)
    return deltas


@settings(deadline=None, max_examples=150)
@given(delta_dicts())
def test_every_table_that_builds_reads_back_from_its_file(deltas):
    try:
        table = SignatureTable(deltas=deltas)
    except ValueError:
        return
    back = read_signature_csv(io.StringIO(_signature_text(table)))
    assert back == table and hash(back) == hash(table)


def _gesture_sensor_order(key):
    return (key[0].value, key[1])


@settings(deadline=None, max_examples=100)
@given(signature_tables(), st.randoms(use_true_random=False))
def test_signature_table_orders_deltas_whatever_the_input_order(table, random):
    items = list(table.deltas.items())
    random.shuffle(items)
    shuffled = SignatureTable(deltas=dict(items))
    assert list(shuffled.deltas) == sorted(shuffled.deltas, key=_gesture_sensor_order)
    in_order = dict(sorted(items, key=lambda item: _gesture_sensor_order(item[0])))
    ordered = SignatureTable(deltas=in_order)
    assert _signature_text(shuffled) == _signature_text(ordered)
    assert shuffled == ordered and hash(shuffled) == hash(ordered)


_SIGNATURE_HEADER_BYTES = (SIGNATURE_CSV_HEADER + "\n").encode()


@settings(deadline=None, max_examples=200)
@given(st.one_of(
    st.binary(max_size=200), st.binary(max_size=200).map(_SIGNATURE_HEADER_BYTES.__add__)
))
def test_read_signature_csv_random_bytes_raise_only_value_error(data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        read_signature_csv(stream)
    except ValueError:  # UnicodeDecodeError is one too
        pass


_BAD_SIGNATURE_TOKENS = st.one_of(
    st.sampled_from([
        "", " ", "x", "nan", "inf", "-inf", "1e999", "0", "6", "-1", "2.5", "relax",
        "transition", "EXTEND", "99999999999999999999", "\x00", "1_0",
    ]),
    st.text(max_size=6),
)


@st.composite
def mutated_signature_texts(draw):
    lines = _signature_text(draw(signature_tables())).splitlines(keepends=True)
    row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].rstrip("\n").split(",")
    kind = draw(st.sampled_from(["replace", "drop", "add", "delete", "duplicate", "blank"]))
    pos = draw(st.integers(0, len(fields) - 1))
    if kind == "replace":
        fields[pos] = draw(_BAD_SIGNATURE_TOKENS)
    elif kind == "drop":
        del fields[pos]
    elif kind == "add":
        fields.insert(pos, draw(_BAD_SIGNATURE_TOKENS))
    lines[row] = ",".join(fields) + "\n"
    if kind == "delete":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "blank":
        lines.insert(row, draw(st.sampled_from(["\n", " \n", "\r\n"])))
    return "".join(lines)


@settings(deadline=None, max_examples=300)
@given(mutated_signature_texts())
def test_read_signature_csv_mutated_lines_raise_only_value_error(text):
    try:
        table = read_signature_csv(io.StringIO(text))
    except ValueError:
        return
    assert all(1 <= s <= 5 for s in table.active_sensors)
