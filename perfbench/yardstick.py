"""A fixed piece of work that measures the host's speed while a pass runs.

On a shared sandbox the CPUs change speed by up to 1.5x for tens of seconds
at a time, because of load elsewhere on the host that the sandbox can
neither see nor stop. Process CPU time slows with wall time, so it does not
help. While a timed pass runs, an interval timer interrupts it every
INTERVAL_S and runs this yardstick once. The yardstick is interpreter work
of the kind the pipeline does (split and parse a line, build tuples, look
up a dict, smooth a float), plus one small MLP training step in numpy. Its
duration at that moment is one sample of the host's speed. The harness
takes the yardstick's own time out of the pass, then expresses the pass in
yardstick runs. The yardstick never changes with the program, so a change
to the program moves that figure and the host's speed does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05

# Nominal durations of the two yardsticks, near their medians on the 2-vCPU
# Xeon host the benchmark was written on. Set-up times are reported as
# seconds on a host where the yardsticks take this long (see run.py).
REF_S = 0.002  # one Yardstick.work()
IMPORT_REF_S = 0.18  # a fresh interpreter that imports numpy and exits


class Yardstick:
    """Samples the yardstick on a timer; use as a context manager."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(300, 900, size=(20, 5))
        self._target = np.eye(5)[rng.integers(0, 5, size=20)]
        shapes = ((100, 5), (100,), (100, 100), (100,), (5, 100), (5,))
        self._params = [rng.uniform(-0.1, 0.1, size=shape) for shape in shapes]
        self.starts = []  # perf_counter at each sample's start, ascending
        self.durations = []

    def work(self) -> float:
        """One fixed unit of work; returns a value so nothing is skipped."""
        acc = 0.0
        table = {}
        for i in range(300):
            fields = f"{i},{i * 7 % 1024},{i * 13 % 1024},{i * 3 % 1024},{i % 1024}".split(",")
            values = tuple(int(v) for v in fields)
            table[values[0] % 97] = values
            acc = 0.8 * acc + 0.2 * values[1]
            if table.get(i % 97) is values:
                acc += abs(values[2] - values[3]) / (1 + values[4])
        rng = np.random.default_rng(1)
        w1, b1, w2, b2, w3, b3 = (p.copy() for p in self._params)
        z1 = self._x @ w1.T + b1
        a1 = np.maximum(z1, 0.0) * ((rng.random(z1.shape) >= 0.3) / 0.7)
        z2 = a1 @ w2.T + b2
        a2 = np.maximum(z2, 0.0) * ((rng.random(z2.shape) >= 0.3) / 0.7)
        out = 1.0 / (1.0 + np.exp(-(a2 @ w3.T + b3)))
        d3 = (out - self._target) / 100
        d2 = (d3 @ w3) * (z2 > 0)
        d1 = (d2 @ w2) * (z1 > 0)
        grads = (d1.T @ self._x + 0.02 * w1, d1.sum(0), d2.T @ a1 + 0.02 * w2,
                 d2.sum(0), d3.T @ a2, d3.sum(0))
        for p, g in zip((w1, b1, w2, b2, w3, b3), grads):
            m = 0.1 * g
            v = 0.001 * g * g
            p -= 0.001 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        return acc + float(w3.sum())

    def sample(self, *_):
        # With the collector off, a collection the sample would trigger runs
        # later on the program's side, and the sample never scans the
        # program's heap, whose size the program controls.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.work()
            end = perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> list:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the yardstick samples inside."""
        return end - start - sum(self._window(start, end))

    def ref(self, start: float, end: float) -> float:
        """Mean yardstick duration inside the window; sampled now if none."""
        inside = self._window(start, end)
        if not inside:
            begin = perf_counter()
            self.work()
            return perf_counter() - begin
        return statistics.fmean(inside)
