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

from .types import NUM_CHANNELS, SensorFrame, check_settings

# Rows per lane of _advance's chunked EWMA, and the passes it may take
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
    pushed and popped at most once. Entries with t <= t_rel - window are
    evicted (entries with t > t_rel - window are retained).
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

    def _advance(self, t, readings, channels) -> np.ndarray:
        """A checked trace's baselines at once on the given 0-based channels
        (t its times, readings those columns), continuing this tracker on
        them only: row i is what update returns for frame i. The EWMA is
        update's recurrence bit for bit, in checked lanes (_chunked_ewma) or
        serially; the window maximum is an exact range maximum over what the
        deque holds. ValueError if t[0] precedes the last time seen."""
        if not len(t):
            return np.empty(readings.shape)
        entries, seeded = [], readings
        if self._last_t is not None:
            if t[0] < self._last_t:
                raise ValueError(f"non-monotonic timestamp: {t[0]} after {self._last_t}")
            # entries go in front (-inf, never a maximum, in other channels); EWMA seeds row 0
            entries = [(ht, j, v) for j, c in enumerate(channels) for ht, v in self._maxima[c]]
            entries.sort(key=lambda entry: entry[0])
            seeded = np.vstack([[self._ewma[c] for c in channels], readings])
        held = np.full((len(entries), len(channels)), -np.inf)
        held[range(len(entries)), [e[1] for e in entries]] = [e[2] for e in entries]
        times = np.concatenate([[e[0] for e in entries], t])
        smoothed = np.concatenate([held, _ewma(seeded, self.cfg.alpha)[len(seeded) - len(t):]])
        baselines, first = _window_max(smoothed, times, self.cfg.window)
        # the deque keeps the rows of the last window larger than every later row
        tail, tail_t = smoothed[first:], times[first:]
        after = np.vstack([np.full(len(channels), -np.inf), tail[:0:-1]])
        kept = tail > np.maximum.accumulate(after)[::-1]
        for j, c in enumerate(channels):
            self._maxima[c] = deque(zip(tail_t[kept[:, j]].tolist(), tail[kept[:, j], j].tolist()))
            self._ewma[c] = float(smoothed[-1, j])
        self._last_t = float(times[-1])
        return baselines[len(entries):]


def _ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    """Each column's EWMA from its first row: in lanes, or serially."""
    smoothed = _chunked_ewma(x, alpha) if len(x) >= 2 * CHUNK else None
    return _serial_ewma(x, alpha) if smoothed is None else smoothed


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


def _window_max(values: np.ndarray, t: np.ndarray, window: float) -> tuple:
    """out[i] = max(values[start[i]:i + 1]) in each column, and start[-1];
    start[i] is the first row with t > t[i] - window, as the tracker keeps.

    A sparse table over all columns at once, built one level at a time:
    level k holds the maxima of 2**k consecutive rows, and a range of
    length L, 2**k <= L < 2**(k+1), is covered by two level-k entries. Max
    only selects, so it is exact.
    """
    rows = np.arange(len(t))
    # t - window can round to t itself for huge t; the tracker still keeps row i
    start = np.minimum(np.searchsorted(t, t - window, side="right"), rows)
    level = np.frexp(rows - start + 1)[1] - 1  # floor(log2(window length))
    out = np.empty_like(values)
    table = values
    for k in range(int(level.max()) + 1):
        width = 1 << k
        if k:
            table = np.maximum(table[: -(width // 2)], table[width // 2 :])
        at = np.flatnonzero(level == k)
        out[at] = np.maximum(table.take(start[at], axis=0), table.take(at - width + 1, axis=0))
    return out, int(start[-1])
