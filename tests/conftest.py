import numpy as np

from lightband.types import GestureLabel, LabeledTrace

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
