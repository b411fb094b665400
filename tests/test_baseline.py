import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import R, ReferenceTracker, flat_rows, make_trace, random_rows
from lightband.baseline import BaselineConfig, BaselineTracker, batch_baselines
from lightband.types import SensorFrame


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


@settings(deadline=None, max_examples=40)
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
def timestamped_streams(draw):
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
    return t, rows, BaselineConfig(alpha=draw(st.floats(0.01, 1.0)), window=window)


@settings(deadline=None, max_examples=150)
@given(timestamped_streams())
def test_batch_baselines_equal_streaming_tracker(case):
    t, rows, cfg = case
    tracker = BaselineTracker(cfg)
    streamed = [
        tracker.update(SensorFrame(t_rel=ti, t_unix=ti, channels=row))
        for ti, row in zip(t.tolist(), rows.tolist())
    ]
    got = batch_baselines(t, rows, cfg)
    assert got.shape == rows.shape
    assert np.array_equal(got, np.array(streamed, dtype=float).reshape(rows.shape))


def test_batch_baselines_reject_non_monotonic_time():
    with pytest.raises(ValueError, match="non-monotonic"):
        batch_baselines([0.0, 0.04, 0.02], flat_rows(10, 3))


@pytest.mark.parametrize("t_rel, rows, message", [
    ([0.0, math.nan, 0.04], flat_rows(10, 3), "row 1: non-finite timestamp nan"),
    ([0.0, 0.02, math.inf], flat_rows(10, 3), "row 2: non-finite timestamp inf"),
    ([[0.0, 0.02]], flat_rows(10, 2), r"times must be one-dimensional, got shape \(1, 2\)"),
    (0.0, flat_rows(10, 1), r"times must be one-dimensional, got shape \(\)"),
    ([0.0, 0.02], [10, 10], r"channels must have shape \(2, k\) for 2 times, got \(2,\)"),
    ([0.0, 0.02], np.zeros((2, 5, 1)), r"got \(2, 5, 1\)"),
    ([0.0, 0.02, 0.04], flat_rows(10, 2), r"for 3 times, got \(2, 5\)"),
    ([0.0, 0.02], flat_rows(10, 3), r"for 2 times, got \(3, 5\)"),
    ([0.0, 0.02], flat_rows(10, 1), r"for 2 times, got \(1, 5\)"),
])
def test_batch_baselines_reject_malformed_input(t_rel, rows, message):
    with pytest.raises(ValueError, match=message):
        batch_baselines(t_rel, rows)


@settings(deadline=None, max_examples=150)
@given(timestamped_streams())
def test_update_bitwise_equals_ewma_step_reference(case):
    t, rows, cfg = case
    tracker, reference = BaselineTracker(cfg), ReferenceTracker(cfg)
    for ti, row in zip(t.tolist(), rows.tolist()):
        frame = SensorFrame(t_rel=ti, t_unix=ti, channels=row)
        # repr tells 800 from 800.0 and keeps every bit of a float
        assert list(map(repr, tracker.update(frame))) == list(map(repr, reference.update(frame)))
        assert list(map(repr, tracker.smoothed)) == list(map(repr, reference.smoothed))
