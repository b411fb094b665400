import numpy as np

from lightband.baseline import BaselineTracker
from lightband.types import NUM_CHANNELS, GestureLabel, LabeledTrace

R = GestureLabel.RELAX
E = GestureLabel.EXTEND
F = GestureLabel.FIST
O = GestureLabel.ONE
T = GestureLabel.TRANSITION


def make_trace(channel_rows, labels, interval=0.02):
    """Build a trace with evenly spaced timestamps from raw channel rows."""
    t_rel = np.arange(len(channel_rows)) * interval
    return LabeledTrace(
        t_rel=t_rel, t_unix=t_rel, channels=channel_rows, labels=tuple(labels),
        sample_interval=interval,
    )


def flat_rows(value, n, channels=5):
    return [[value] * channels for _ in range(n)]


def random_rows(rng: np.random.Generator, n):
    return [[int(v) for v in rng.integers(0, 1024, size=5)] for _ in range(n)]


def ewma_step(prev, x, alpha):
    """One smoothing step: (1 - alpha) * prev + alpha * x."""
    return (1 - alpha) * prev + alpha * x


class ReferenceTracker(BaselineTracker):
    """BaselineTracker with update written a channel at a time through
    ewma_step: the reference the tracker's own update is held to."""

    def update(self, frame):
        t = frame.t_rel
        if self._last_t is not None and t < self._last_t:
            raise ValueError(f"non-monotonic timestamp: {t} after {self._last_t}")
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
