"""Relax-baseline tracking: EWMA smoothing plus a sliding window maximum.

Gestures pull the intensities down, so the largest smoothed reading seen in
the recent past is a good estimate of the current relax level. Each channel
keeps an exponentially weighted moving average and reports the maximum
smoothed value observed inside a trailing time window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .types import NUM_CHANNELS, SensorFrame, _reject_first, check_settings

# Rows per lane of batch_baselines' chunked EWMA, and the passes it may take
# before it falls back to the serial recurrence.
CHUNK = 256
_MAX_PASSES = 4


@dataclass(frozen=True)
class BaselineConfig:
    alpha: float = 0.2  # smoothing weight; 1.0 tracks the raw readings
    window: float = 4.0  # seconds of history for the maximum

    def __post_init__(self):
        check_settings(self, reals=("alpha", "window"))
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.window <= 0:
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
    frames 0..i-1, for any number of channel columns. The EWMA is the
    tracker's own recurrence, bit for bit: run in chunks side by side and
    checked (_chunked_ewma), or a reading at a time (_serial_ewma); the window
    maximum is an exact range maximum over [first frame with
    t > t_i - window, i], the frames the tracker's deque still holds.
    Raises ValueError unless the times are 1-D and the channels a 2-D array
    with a row per time, and FrameError at the first time that is not
    finite or that goes back.
    """
    t = np.asarray(t_rel, dtype=np.float64)
    x = np.asarray(channels)
    if t.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
    if x.ndim != 2 or len(x) != len(t):
        raise ValueError(
            f"channels must have shape ({len(t)}, k) for {len(t)} times, got {x.shape}"
        )
    _reject_first(~np.isfinite(t), lambda row: f"non-finite timestamp {t[row]}")
    _reject_first(
        np.concatenate(([False], t[1:] < t[:-1])),
        lambda row: f"non-monotonic timestamp: {t[row]} after {t[row - 1]}",
    )
    n = len(t)
    if n == 0:
        return np.empty(x.shape)
    rows = np.arange(n)
    # t - window can round to t itself for huge t; the tracker still keeps frame i
    start = np.minimum(np.searchsorted(t, t - cfg.window, side="right"), rows)
    level = np.frexp(rows - start + 1)[1] - 1  # floor(log2(window length))
    smoothed = _chunked_ewma(x, cfg.alpha) if n >= 2 * CHUNK else None
    if smoothed is None:
        smoothed = _serial_ewma(x, cfg.alpha)
    return _window_max(smoothed, start, level)


def _serial_ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    """Each column's EWMA by the tracker's scalar recurrence, a reading at a time."""
    keep = 1 - alpha
    out = np.empty(x.shape)
    for ch in range(x.shape[1]):
        smoothed = accumulate(
            (alpha * x[1:, ch]).tolist(),
            lambda prev, wx: keep * prev + wx,
            initial=float(x[0, ch]),
        )
        out[:, ch] = np.fromiter(smoothed, dtype=np.float64, count=len(x))
    return out


def _chunked_ewma(x: np.ndarray, alpha: float):
    """_serial_ewma(x, alpha) bit for bit, or None if it does not settle.

    The rows are cut into chunks of CHUNK, and each chunk of each column is
    one numpy lane: a pass steps every lane a row at a time with the
    tracker's two IEEE operations, s * keep, then + alpha * x. Chunk 0
    starts at its first reading, as the tracker does; any other chunk starts
    from a guess, its own first reading. After a pass each chunk's start is
    checked against end * keep + alpha * x[start], end being the previous
    chunk's last value. When every start matches bit for bit (int64 views,
    so -0.0 and nan bits count), every row follows from the row before it by
    the recurrence, so the lanes hold exactly the serial result. Otherwise
    the starts are replaced and the pass runs again. After pass p the first
    p chunks are exact; and as keep**CHUNK is tiny for the usual alphas, a
    wrong start rounds away inside its chunk, so two passes nearly always
    settle. A trace still unsettled after _MAX_PASSES gets None, and so
    does one with a nan reading.
    """
    n, k = x.shape
    chunks = -(-n // CHUNK)
    keep = 1 - alpha
    # alpha * x zero-padded to whole chunks, then laid out (row in chunk,
    # chunk, column), so that a row step of every lane is one contiguous array
    padded = np.zeros((chunks * CHUNK, k))
    padded[:n] = alpha * x
    if np.isnan(padded).any():
        return None  # when two nans meet in an add, numpy may keep the other's bits
    weighted = padded.reshape(chunks, CHUNK, k).transpose(1, 0, 2).copy()
    lanes = np.empty_like(weighted)
    starts = lanes[0]
    starts[:] = x[::CHUNK]
    steps = list(zip(lanes[:-1], lanes[1:], weighted[1:]))
    for _ in range(_MAX_PASSES):
        # as in Python float arithmetic: an overflow is inf, inf - inf is nan
        with np.errstate(over="ignore", invalid="ignore"):
            for prev, step, wx in steps:
                np.multiply(prev, keep, step)
                np.add(step, wx, step)
            settled = lanes[-1, :-1] * keep
            settled += weighted[0, 1:]
        if np.array_equal(settled.view(np.int64), starts[1:].view(np.int64)):
            padded.reshape(chunks, CHUNK, k)[:] = lanes.transpose(1, 0, 2)
            return padded[:n]
        starts[1:] = settled
    return None


def _window_max(values: np.ndarray, start: np.ndarray, level: np.ndarray) -> np.ndarray:
    """out[i] = max(values[start[i]:i + 1]) in each column, given
    level[i] = floor(log2(i - start[i] + 1)).

    A sparse table over all columns at once, built one level at a time:
    level k holds the maxima of 2**k consecutive rows, and a range of
    length L, 2**k <= L < 2**(k+1), is covered by two level-k entries. Max
    only selects, so it is exact.
    """
    out = np.empty_like(values)
    table = values
    for k in range(int(level.max()) + 1):
        width = 1 << k
        if k:
            table = np.maximum(table[: -(width // 2)], table[width // 2 :])
        at = np.flatnonzero(level == k)
        out[at] = np.maximum(table.take(start[at], axis=0), table.take(at - width + 1, axis=0))
    return out
