import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    E,
    F,
    O,
    R,
    ReferenceTracker,
    ewma_step,
    flat_rows,
    make_trace,
    oracle_examples,
    random_rows,
)
from lightband import baseline
from lightband.baseline import BaselineConfig, BaselineTracker
from lightband.simulate import SimConfig, synth_trace
from lightband.types import SensorFrame

# the oracle step (pytest -m oracle) runs every test in this module
pytestmark = pytest.mark.oracle


def brute_force_baselines(frames, alpha, window):
    """Reference: full EWMA history plus a scan-max over the trailing window."""
    history = []
    smoothed = None
    out = []
    for frame in frames:
        if smoothed is None:
            smoothed = [float(v) for v in frame.channels]
        else:
            smoothed = [
                (1 - alpha) * prev + alpha * x
                for prev, x in zip(smoothed, frame.channels)
            ]
        history.append((frame.t_rel, list(smoothed)))
        cutoff = frame.t_rel - window
        out.append(
            [
                max(values[ch] for t, values in history if t > cutoff)
                for ch in range(5)
            ]
        )
    return out


def ewma_after(prev, x, alpha):
    """The tracker's smoothed value after a frame of prev, then one of x."""
    tracker = BaselineTracker(BaselineConfig(alpha=alpha))
    for t, value in enumerate((prev, x)):
        tracker.update(SensorFrame(t_rel=float(t), t_unix=float(t), channels=[value] * 5))
    return tracker.smoothed[0]


def test_ewma_examples():
    assert ewma_after(100, 200, 0.2) == 120.0
    assert ewma_after(7, 42, 1.0) == 42.0


@given(st.integers(0, 1023), st.floats(0.01, 1.0))
def test_ewma_fixed_point_on_constant(c, alpha):
    assert ewma_after(c, c, alpha) == pytest.approx(c)


def test_ewma_alpha_range():
    # alpha is checked once, when the config is built, not on every step
    for alpha in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            BaselineConfig(alpha=alpha)
    assert BaselineConfig(alpha=1.0).alpha == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(window=0.0)


def test_first_frame_initializes_to_reading():
    trace = make_trace([[800, 10, 500, 1023, 0]], [R])
    tracker = BaselineTracker()
    assert tracker.update(next(trace.frames)) == [800, 10, 500, 1023, 0]


def test_constant_stream_is_fixed_point():
    trace = make_trace(flat_rows(800, 300), [R] * 300)
    tracker = BaselineTracker()
    for frame in trace.frames:
        assert tracker.update(frame) == [800.0] * 5


def test_step_down_decays_to_new_level():
    # 900 for 2s, then 600 held for 10s: baseline must settle at 600
    rows = flat_rows(900, 100) + flat_rows(600, 500)
    trace = make_trace(rows, [R] * 600)
    cfg = BaselineConfig()
    tracker = BaselineTracker(cfg)
    got = [tracker.update(frame) for frame in trace.frames]
    expected = brute_force_baselines(trace.frames, cfg.alpha, cfg.window)
    assert np.allclose(got, expected, atol=1e-12, rtol=0)
    assert got[0] == [900.0] * 5
    assert all(abs(v - 600.0) < 1e-6 for v in got[-1])


@settings(deadline=None, max_examples=oracle_examples(40))
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 250),
    st.floats(0.05, 1.0),
    st.sampled_from([0.1, 0.5, 1.0, 4.0]),
)
def test_oracle_equivalence_random_streams(seed, n, alpha, window):
    rng = np.random.default_rng(seed)
    trace = make_trace(random_rows(rng, n), [R] * n)
    cfg = BaselineConfig(alpha=alpha, window=window)
    tracker = BaselineTracker(cfg)
    got = [tracker.update(frame) for frame in trace.frames]
    expected = brute_force_baselines(trace.frames, alpha, window)
    assert np.allclose(got, expected, atol=1e-12, rtol=0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 150))
def test_baseline_at_least_current_smoothed(seed, n):
    rng = np.random.default_rng(seed)
    trace = make_trace(random_rows(rng, n), [R] * n)
    tracker = BaselineTracker()
    for frame in trace.frames:
        baselines = tracker.update(frame)
        for b, s in zip(baselines, tracker.smoothed):
            assert b >= s - 1e-12


def test_baseline_equals_smoothed_on_rising_input():
    # rising readings give a non-decreasing smoothed sequence, so the window
    # max is exactly the newest smoothed value
    rows = [[i * 5] * 5 for i in range(200)]
    trace = make_trace(rows, [R] * 200)
    tracker = BaselineTracker()
    for frame in trace.frames:
        baselines = tracker.update(frame)
        assert baselines == tracker.smoothed


def test_square_wave_keeps_relax_plateau_estimate():
    # relax 900 for 6s, dip to 600 for 2s (shorter than the 4s window)
    rows = flat_rows(900, 300) + flat_rows(600, 100) + flat_rows(900, 300)
    trace = make_trace(rows, [R] * 700)
    tracker = BaselineTracker()
    plateau_end_smoothed = None
    for i, frame in enumerate(trace.frames):
        baselines = tracker.update(frame)
        if i == 299:
            plateau_end_smoothed = tracker.smoothed[0]
        if 300 <= i < 400:
            assert baselines[0] >= plateau_end_smoothed - 1e-12


def test_non_monotonic_timestamp_rejected():
    tracker = BaselineTracker()
    first, second = make_trace(flat_rows(10, 2), [R, R]).frames
    tracker.update(second)
    with pytest.raises(ValueError, match="non-monotonic"):
        tracker.update(first)


@st.composite
def timestamped_streams(draw, min_alpha=0.01):
    """Readings with jittered, sometimes repeated, timestamps and a config
    whose window often lands exactly on the gap between two samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    interval = 0.02
    jitter = draw(st.sampled_from([0.0, 0.5]))
    steps = interval * (1 + rng.uniform(-jitter, jitter, size=n))
    if draw(st.booleans()):
        steps[rng.random(n) < 0.1] = 0.0  # the tracker accepts equal timestamps
    # 2**60 is so large that t - window rounds back to t
    offset = draw(st.sampled_from([0.0, 1e6, 2.0**60]))
    t = offset + np.cumsum(steps)
    rows = rng.integers(0, 1024, size=(n, 5))
    window = draw(st.one_of(
        st.floats(0.005, 8.0),
        st.integers(1, 250).map(lambda k: k * interval),
        st.just(None),
    ))
    if window is None:  # the exact gap between two of the samples
        a, b = sorted(rng.integers(0, max(n, 1), size=2))
        window = float(t[b] - t[a]) if n and t[b] > t[a] else interval
    return t, rows, BaselineConfig(alpha=draw(st.floats(min_alpha, 1.0)), window=window)


def streamed_baselines(t, rows, cfg) -> np.ndarray:
    """The baselines BaselineTracker.update returns, frame by frame."""
    tracker = BaselineTracker(cfg)
    streamed = [
        tracker.update(SensorFrame(t_rel=ti, t_unix=ti, channels=row))
        for ti, row in zip(t.tolist(), rows.tolist())
    ]
    return np.array(streamed, dtype=float).reshape(rows.shape)


def advanced(t, rows, cfg) -> np.ndarray:
    """A fresh tracker's _advance over the whole trace, on every column."""
    return BaselineTracker(cfg)._advance(t, rows, list(range(rows.shape[1])))


@settings(deadline=None, max_examples=oracle_examples(150))
@given(timestamped_streams())
def test_advance_equals_streaming_tracker(case):
    t, rows, cfg = case
    got = advanced(t, rows, cfg)
    assert got.shape == rows.shape
    assert np.array_equal(got, streamed_baselines(t, rows, cfg))


@settings(deadline=None, max_examples=oracle_examples(150))
@given(timestamped_streams(min_alpha=1e-3))
def test_advance_equals_streaming_tracker_in_short_chunks(case):
    # chunks of 8 rows take the chunked EWMA from 16 rows on, and its
    # fallback at small alphas
    t, rows, cfg = case
    with patch.object(baseline, "CHUNK", 8):
        got = advanced(t, rows, cfg)
    assert got.shape == rows.shape
    assert np.array_equal(got, streamed_baselines(t, rows, cfg))


@settings(deadline=None, max_examples=oracle_examples(150))
@given(timestamped_streams(), st.data())
def test_one_tracker_mixes_advance_chunks_and_update_readings(case, data):
    # as Recognizer mixes classify and push: stretches of the stream go
    # through _advance on the active channels or a reading at a time
    # through update on all five; chunks of 8 rows put the chunked EWMA,
    # seeded from the tracker's state, into the mix
    t, rows, cfg = case
    channels = sorted(data.draw(st.sets(st.integers(0, 4), min_size=1), label="channels"))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(t)), max_size=6), label="cuts"))
    tracker, got = BaselineTracker(cfg), []
    with patch.object(baseline, "CHUNK", 8):
        for lo, hi in zip([0, *cuts], [*cuts, len(t)]):
            if data.draw(st.booleans(), label="as one chunk"):
                got.append(tracker._advance(t[lo:hi], rows[lo:hi, channels], channels))
            else:
                for ti, row in zip(t[lo:hi].tolist(), rows[lo:hi].tolist()):
                    baselines = tracker.update(SensorFrame(t_rel=ti, t_unix=ti, channels=row))
                    got.append([[baselines[c] for c in channels]])
    streaming = BaselineTracker(cfg)
    expected = [
        streaming.update(SensorFrame(t_rel=ti, t_unix=ti, channels=row))
        for ti, row in zip(t.tolist(), rows.tolist())
    ]
    got = np.concatenate([np.empty((0, len(channels))), *got])
    assert np.array_equal(got, np.array(expected, dtype=float).reshape(rows.shape)[:, channels])
    assert [tracker.smoothed[c] for c in channels] == [streaming.smoothed[c] for c in channels]


def test_advance_refuses_a_chunk_that_starts_before_the_last_time():
    tracker = BaselineTracker()
    tracker.update(SensorFrame(t_rel=0.04, t_unix=0.04, channels=[800] * 5))
    with pytest.raises(ValueError, match=r"^non-monotonic timestamp: 0.02 after 0.04$"):
        tracker._advance(np.array([0.02, 0.06]), np.array([[700], [600]]), [3])
    assert tracker.smoothed == [800] * 5
    # an equal time continues the session
    assert tracker._advance(np.array([0.04]), np.array([[600]]), [3]).tolist() == [[800.0]]


def test_advance_of_no_rows_leaves_the_tracker_as_it_was():
    t, rows = np.arange(6) * 0.02, np.array(flat_rows(900, 3) + flat_rows(500, 3))
    tracker, untouched = BaselineTracker(), BaselineTracker()
    for ti, row in zip(t[:3].tolist(), rows[:3].tolist()):
        for each in (tracker, untouched):
            each.update(SensorFrame(t_rel=ti, t_unix=ti, channels=row))
    assert tracker._advance(t[:0], rows[:0, [1, 3]], [1, 3]).shape == (0, 2)
    assert tracker.smoothed == untouched.smoothed
    assert np.array_equal(tracker._advance(t[3:], rows[3:], list(range(5))),
                          untouched._advance(t[3:], rows[3:], list(range(5))))


@pytest.mark.parametrize("last", [math.nan, -math.inf])
def test_advance_takes_the_ewma_from_the_last_smoothed_row(last):
    # the last reading is no window maximum, so the deque does not hold it
    rows = np.array([[1.0], [3.0], [5.0], [7.0], [last]])
    tracker = BaselineTracker()
    got = tracker._advance(np.arange(5) * 0.02, rows, [0])
    assert got[:4, 0].tolist() == pytest.approx([1.0, 1.4, 2.12, 3.096])
    assert repr(tracker.smoothed[0]) == repr(last)


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 values as int64 bit patterns: tells -0.0 from 0.0, and nans apart."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def serial_smoothed(rows: np.ndarray, alpha: float) -> np.ndarray:
    """Each column's EWMA through ewma_step, a reading at a time: the
    tracker's recurrence, starting from the first reading."""
    smoothed = []
    for row in rows.tolist():
        smoothed.append(
            [ewma_step(prev, x, alpha) for prev, x in zip(smoothed[-1], row)]
            if smoothed else [float(x) for x in row]
        )
    return np.array(smoothed, dtype=float).reshape(rows.shape)


def scan_max(t: np.ndarray, smoothed: np.ndarray, window: float) -> np.ndarray:
    """Row i: each column's largest smoothed value over the frames the
    tracker still holds at frame i (t > t_i - window, and frame i itself)."""
    out = np.empty_like(smoothed)
    for i, ti in enumerate(t):
        held = t[: i + 1] > ti - window
        held[i] = True
        out[i] = smoothed[: i + 1][held].max(axis=0)
    return out


def channel_rows(kind: str, n: int, k: int, rng) -> np.ndarray:
    if kind == "int":
        return rng.integers(0, 1024, size=(n, k))
    if kind == "signed_zeros":
        return np.where(rng.random((n, k)) < 0.5, -0.0, 0.0)
    rows = rng.normal(500.0, 300.0, size=(n, k))
    special = {"float": [-0.0], "infinities": [np.inf, -np.inf], "nans": [np.nan, -np.nan]}[kind]
    spots = rng.random((n, k)) < 0.1
    rows[spots] = rng.choice(special, size=spots.sum())
    return rows


@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.2, 1e-3])
@pytest.mark.parametrize("kind", ["int", "float", "signed_zeros", "infinities", "nans"])
def test_chunked_ewma_equals_serial_recurrence(kind, alpha):
    # chunks of 8 rows: n = 0, 1, CHUNK - 1 .. CHUNK + 1, 2 * CHUNK - 1 ..
    # 2 * CHUNK + 1 (the first chunked length) and many chunks
    rng = np.random.default_rng(7)
    cfg = BaselineConfig(alpha=alpha, window=0.1)
    with patch.object(baseline, "CHUNK", 8):
        for n in (0, 1, 7, 8, 9, 15, 16, 17, 200):
            t = np.arange(n) * 0.02
            for k in (0, 1, 5):
                rows = channel_rows(kind, n, k, rng)
                smoothed = serial_smoothed(rows, alpha)
                if n:  # _advance returns before either EWMA for n = 0
                    assert np.array_equal(bits(baseline._serial_ewma(rows, alpha)), bits(smoothed))
                    chunked = baseline._chunked_ewma(rows, alpha)
                    if chunked is not None:
                        assert np.array_equal(bits(chunked), bits(smoothed)), (n, k)
                got = advanced(t, rows, cfg)
                assert got.shape == rows.shape
                expected = scan_max(t, smoothed, cfg.window)
                assert np.array_equal(got, expected, equal_nan=True), (n, k)


def settles_within(passes: int, rows: np.ndarray, alpha: float) -> bool:
    """Whether the chunked EWMA of rows settles in at most this many passes."""
    with patch.object(baseline, "_MAX_PASSES", passes):
        smoothed = baseline._chunked_ewma(rows, alpha)
    if smoothed is not None:
        assert np.array_equal(bits(smoothed), bits(serial_smoothed(rows, alpha)))
    return smoothed is not None


def test_chunked_ewma_takes_one_pass_several_or_falls_back():
    rows = np.random.default_rng(3).integers(0, 1024, size=(200, 5))
    with patch.object(baseline, "CHUNK", 8):
        # alpha 1: each start is its own reading, the first guess
        assert settles_within(1, rows, 1.0)
        # keep**8 = 1e-8: a wrong start still shows at a chunk's end
        assert not settles_within(1, rows, 0.9)
        assert settles_within(baseline._MAX_PASSES, rows, 0.9)
        # keep**8 is near 1: no pass fixes more than its first chunk
        assert not settles_within(baseline._MAX_PASSES, rows, 1e-3)


@pytest.mark.parametrize("alpha, passes", [(0.2, 2), (0.05, 4), (0.01, None)])
def test_advance_on_a_simulated_trace_takes_the_chunked_path_or_falls_back(alpha, passes):
    # 2,220 frames: 9 chunks of the real CHUNK; None: the serial fallback
    trace = synth_trace([E, F, O] * 2, cfg=SimConfig(seed=5))
    rows = trace.channels
    if passes is None:
        assert not settles_within(baseline._MAX_PASSES, rows, alpha)
    else:
        assert not settles_within(passes - 1, rows, alpha)
        assert settles_within(passes, rows, alpha)
    cfg = BaselineConfig(alpha=alpha)
    got = advanced(trace.t_rel, rows, cfg)
    assert np.array_equal(got, streamed_baselines(trace.t_rel, rows, cfg))


@settings(deadline=None, max_examples=oracle_examples(150))
@given(timestamped_streams())
def test_update_bitwise_equals_ewma_step_reference(case):
    t, rows, cfg = case
    tracker, reference = BaselineTracker(cfg), ReferenceTracker(cfg)
    for ti, row in zip(t.tolist(), rows.tolist()):
        frame = SensorFrame(t_rel=ti, t_unix=ti, channels=row)
        # repr tells 800 from 800.0 and keeps every bit of a float
        assert list(map(repr, tracker.update(frame))) == list(map(repr, reference.update(frame)))
        assert list(map(repr, tracker.smoothed)) == list(map(repr, reference.smoothed))
