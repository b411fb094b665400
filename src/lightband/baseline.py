"""Relax-baseline tracking: EWMA smoothing plus a sliding window maximum.

Gestures pull the intensities down, so the largest smoothed reading seen in
the recent past is a good estimate of the current relax level. Each channel
keeps an exponentially weighted moving average and reports the maximum
smoothed value observed inside a trailing time window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .types import NUM_CHANNELS, SensorFrame


@dataclass(frozen=True)
class BaselineConfig:
    alpha: float = 0.2  # smoothing weight; 1.0 tracks the raw readings
    window: float = 4.0  # seconds of history for the maximum

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be finite and positive, got {self.window}")


class BaselineTracker:
    """Streaming per-channel baseline state.

    Single-owner mutable object: feed frames in timestamp order via update().
    The window maximum is kept with a monotonic deque, so each entry is
    pushed and popped at most once. Entries strictly older than
    t_rel - window are evicted (entries with t > now - window are retained).
    """

    def __init__(self, cfg: BaselineConfig = BaselineConfig()):
        self.cfg = cfg
        self._ewma = [None] * NUM_CHANNELS
        # per channel: deque of (t_rel, smoothed) with smoothed strictly decreasing
        self._maxima = [deque() for _ in range(NUM_CHANNELS)]
        self._last_t = None

    def update(self, frame: SensorFrame) -> list:
        """Advance every channel one step and return the 5 baseline estimates.

        The first frame initializes each EWMA to the raw reading. Raises
        ValueError if the frame's timestamp precedes the last one seen.
        """
        t = frame.t_rel
        if self._last_t is not None and t < self._last_t:
            raise ValueError(
                f"non-monotonic timestamp: {t} after {self._last_t}"
            )
        self._last_t = t
        cutoff = t - self.cfg.window
        alpha = self.cfg.alpha
        keep = 1 - alpha
        ewma = self._ewma
        baselines = []
        for ch, (x, prev, window) in enumerate(zip(frame.channels, ewma, self._maxima)):
            smoothed = x if prev is None else keep * prev + alpha * x
            ewma[ch] = smoothed
            while window and window[0][0] <= cutoff:
                window.popleft()
            while window and window[-1][1] <= smoothed:
                window.pop()
            window.append((t, smoothed))
            baselines.append(window[0][1])
        return baselines

    @property
    def smoothed(self) -> list:
        """Current per-channel EWMA values (None before the first frame)."""
        return list(self._ewma)


def batch_baselines(t_rel, channels, cfg: BaselineConfig = BaselineConfig()) -> np.ndarray:
    """Baselines for a whole trace at once, one row per frame.

    Row i is exactly what BaselineTracker.update returns for frame i after
    frames 0..i-1, for any number of channel columns. The EWMA runs the
    tracker's own scalar recurrence, so it rounds the same way; the window
    maximum is an exact range maximum over [first frame with
    t > t_i - window, i], the frames the tracker's deque still holds.
    Raises ValueError unless the times are 1-D, finite and non-decreasing
    and the channels a 2-D array with a row per time.
    """
    t = np.asarray(t_rel, dtype=np.float64)
    x = np.asarray(channels)
    if t.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
    if x.ndim != 2 or len(x) != len(t):
        raise ValueError(
            f"channels must have shape ({len(t)}, k) for {len(t)} times, got {x.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValueError(f"row {bad[0]}: non-finite timestamp {t[bad[0]]}")
    back = np.flatnonzero(t[1:] < t[:-1])
    if back.size:
        i = back[0]
        raise ValueError(f"non-monotonic timestamp: {t[i + 1]} after {t[i]}")
    n = len(t)
    out = np.empty(x.shape)
    if n == 0:
        return out
    rows = np.arange(n)
    # t - window can round to t itself for huge t; the tracker still keeps frame i
    start = np.minimum(np.searchsorted(t, t - cfg.window, side="right"), rows)
    level = np.frexp(rows - start + 1)[1] - 1  # floor(log2(window length))
    keep = 1 - cfg.alpha
    for ch in range(x.shape[1]):  # a column at a time keeps temporaries small
        smoothed = accumulate(
            (cfg.alpha * x[1:, ch]).tolist(),
            lambda prev, wx: keep * prev + wx,
            initial=float(x[0, ch]),
        )
        out[:, ch] = _window_max(np.fromiter(smoothed, dtype=np.float64, count=n), start, level)
    return out


def _window_max(values: np.ndarray, start: np.ndarray, level: np.ndarray) -> np.ndarray:
    """out[i] = max(values[start[i]:i + 1]); level[i] = floor(log2(i - start[i] + 1)).

    A sparse table built one level at a time: level k holds the maxima of
    2**k consecutive values, and a range of length L, 2**k <= L < 2**(k+1),
    is covered by two level-k entries. Max only selects, so it is exact.
    """
    out = np.empty_like(values)
    table = values
    for k in range(int(level.max()) + 1):
        width = 1 << k
        if k:
            table = np.maximum(table[: -(width // 2)], table[width // 2 :])
        at = np.flatnonzero(level == k)
        out[at] = np.maximum(table[start[at]], table[at - width + 1])
    return out
