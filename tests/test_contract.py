"""The paper's semantics as a contract: its defaults by value, and the edges
of the tolerance band, the TRANSITION horizon and the baseline window by
behaviour on the per-frame, batch and push paths."""

import hashlib

import numpy as np

from conftest import E, F, O, R, T, make_trace, members, readings
from lightband.baseline import BaselineConfig, BaselineTracker
from lightband.mlp import MlpConfig
from lightband.signature import (
    MIN_SEGMENT_FRAMES,
    ClassifierState,
    Recognizer,
    SignatureTable,
    classify_frame,
    classify_trace,
    generate_signatures,
)
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace

RELAX_LEVEL = 800


def test_the_paper_defaults():
    state = ClassifierState()
    assert (state.tolerance, state.transition_horizon) == (0.10, 10)
    assert BaselineConfig() == BaselineConfig(alpha=0.2, window=4.0)
    cfg = MlpConfig()
    assert (cfg.hidden, cfg.dropout_rate, cfg.l2) == ((100, 100), 0.3, 0.01)
    assert MIN_SEGMENT_FRAMES == 5


def extend_trace(relax, gesture, level):
    """relax frames at RELAX_LEVEL, then gesture frames with sensors 2-4 at
    level."""
    gesture_row = [RELAX_LEVEL, level, level, level, RELAX_LEVEL]
    rows = [[RELAX_LEVEL] * 5] * relax + [gesture_row] * gesture
    return make_trace(rows, [R] * len(rows))


def extend_table(signature):
    return SignatureTable({(E, sensor): signature for sensor in (2, 3, 4)})


def three_paths(trace, table, baselines) -> dict:
    """{path: (emitted labels, last raw label)} on the per-frame path
    (classify_frame against the baselines given), the batch path and the push
    path."""
    per_frame = ClassifierState()
    batch = ClassifierState()
    recognizer = Recognizer(table)
    return {
        "per-frame": (
            [classify_frame(frame, baselines, table, per_frame) for frame in trace.frames],
            per_frame.recent_labels[-1],
        ),
        "batch": (
            members(classify_trace(trace, table, state=batch)),
            batch.recent_labels[-1],
        ),
        "push": (
            [recognizer.push(t, values) for t, values in readings(trace)],
            recognizer.raw_label,
        ),
    }


def test_a_delta_exactly_ten_percent_off_the_signature_matches():
    table = extend_table(-100.0)
    flat = [float(RELAX_LEVEL)] * 5
    for level, raw in ((RELAX_LEVEL - 110, E), (RELAX_LEVEL - 111, R)):
        paths = three_paths(extend_trace(50, 1, level), table, flat)
        assert [last_raw for _, last_raw in paths.values()] == [raw] * 3, level


def test_the_eleventh_stable_reading_is_emitted():
    flat = [float(RELAX_LEVEL)] * 5
    paths = three_paths(extend_trace(50, 20, RELAX_LEVEL - 100), extend_table(-100.0), flat)
    expected = [R] * 50 + [T] * 10 + [E] * 10
    assert [emitted for emitted, _ in paths.values()] == [expected] * 3


def test_an_entry_exactly_window_old_leaves_the_maximum():
    # times are multiples of 0.25 s, so t - window is exact: the peak at
    # t = 0 is in the window at t = 3.75 and out of it at t = 4.0
    rows = [[800, 1000, 1000, 1000, 800]] + [[800] * 5] * 16
    trace = make_trace(rows, [R] * len(rows), interval=0.25)
    tracker = BaselineTracker()
    streamed = np.array([tracker.update(frame) for frame in trace.frames])
    batch = BaselineTracker()._advance(trace.t_rel, trace.channels, list(range(5)))
    second = (1 - 0.2) * 1000 + 0.2 * 800  # the EWMA at t = 0.25
    for baselines in (streamed, batch):
        assert baselines[15, 1] == 1000 and baselines[16, 1] == second
    # at t = 4.0 the reading is 160 below the baseline, outside -200's band
    table = extend_table(-200.0)
    recognizer = Recognizer(table)
    pushed = [recognizer.push(t, values) for t, values in readings(trace)]
    expected = [R] + [T] * 10 + [E] * 5 + [T]
    assert members(classify_trace(trace, table)) == expected
    assert pushed == expected


def test_labels_at_cli_defaults():
    # train-signatures on seed 1, classify on seed 2, every setting at its default
    script = [E, F, O] * 3
    table = generate_signatures([synth_trace(script, DEFAULT_PROFILES, SimConfig(seed=1))])
    labels = classify_trace(synth_trace(script, DEFAULT_PROFILES, SimConfig(seed=2)), table)
    assert len(labels) == 3330
    assert hashlib.sha256(labels.tobytes()).hexdigest()[:16] == "3996cd7db216b326"
