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


def ewma_step(prev: float, x: float, alpha: float) -> float:
    """One smoothing step: (1 - alpha) * prev + alpha * x.

    alpha is not checked here; BaselineConfig validates it once.
    """
    return (1 - alpha) * prev + alpha * x


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
        baselines = []
        for ch in range(NUM_CHANNELS):
            x = frame.channels[ch]
            prev = self._ewma[ch]
            smoothed = x if prev is None else ewma_step(prev, x, self.cfg.alpha)
            self._ewma[ch] = smoothed
            window = self._maxima[ch]
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
