"""Synthetic sensor-stream generation: the hardware stand-in.

Light guided through a bendable fiber leaks more as the fiber deflects, so
each gesture shows up as a per-sensor dip from the relax level. The
generator scripts gesture cycles (relax, ramp, hold, ramp back), lets the
relax levels wander with a random walk, and adds Gaussian read noise, all
deterministically under a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import signature
from .ingest import numbered_rows
from .types import (
    CLASS_INDEX,
    GESTURES,
    INTENSITY_MAX,
    INTENSITY_MIN,
    NUM_CHANNELS,
    ROW_BLOCK,
    GestureLabel,
    LabeledTrace,
    parse_label,
)
from .types import check_settings, real_setting, tuple_setting


def critical_angle(n_medium: float, n_cladding: float) -> float:
    """Minimum total-internal-reflection angle, in degrees."""
    n_medium, n_cladding = tuple_setting("refractive index", (n_medium, n_cladding), real_setting)
    if n_medium <= 0 or n_cladding <= 0:
        raise ValueError("refractive indices must be finite and positive")
    ratio = n_cladding / n_medium
    if ratio >= 1:
        raise ValueError(
            f"no total internal reflection: n_cladding/n_medium = {ratio} >= 1"
        )
    return math.degrees(math.asin(ratio))


ALL_SENSORS = tuple(range(1, NUM_CHANNELS + 1))

# Calibrated defaults: sensor 4 dips by 223 for EXTEND; the short fibers
# (sensors 2-4) carry the bulk of the change, the long ones (1 and 5) little.
DEFAULT_PROFILES = signature.SignatureTable(
    deltas={
        (gesture, sensor): delta
        for gesture, deltas in (
            (GestureLabel.EXTEND, (-20.0, -150.0, -180.0, -223.0, -12.0)),
            (GestureLabel.FIST, (-35.0, -210.0, -120.0, -130.0, -25.0)),
            (GestureLabel.ONE, (-15.0, -110.0, -150.0, -175.0, -60.0)),
        )
        for sensor, delta in zip(ALL_SENSORS, deltas)
    },
)


def profile_deltas(profiles: signature.SignatureTable) -> dict:
    """Each gesture's steady-state change on sensors 1-5, from a signature table.

    A sensor the table does not list changes by 0.0. Raises ValueError for a
    gesture whose changes are all zero.
    """
    by_gesture = {}
    for gesture, _ in profiles.rows:
        deltas = [float(profiles.deltas.get((gesture, s), 0.0)) for s in ALL_SENSORS]
        if not any(deltas):
            raise ValueError(f"{gesture} profile: at least one delta must be nonzero")
        by_gesture[gesture] = deltas
    return by_gesture


@dataclass(frozen=True)
class SimConfig:
    sample_interval: float = 0.02  # seconds between readings
    gesture_hold: float = 5.0
    relax_hold: float = 2.0
    transition_time: float = 0.2
    noise_sigma: float = 2.0  # per-sample Gaussian read noise, intensity units
    drift: float = 0.05  # random-walk step sigma per sample on the relax level
    baseline_levels: tuple = (340.0, 760.0, 650.0, 800.0, 930.0)
    seed: int = 0
    start_unix: float = 1_577_836_800.0

    def __post_init__(self):
        check_settings(self, ints=("seed",), reals=("sample_interval", "gesture_hold",
                       "relax_hold", "transition_time", "noise_sigma", "drift", "start_unix"))
        object.__setattr__(self, "baseline_levels",
                           tuple_setting("baseline_levels", self.baseline_levels, real_setting))
        for name in ("sample_interval", "gesture_hold", "relax_hold", "transition_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("noise_sigma", "drift", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        # a larger sigma saturates every reading at 0 or the full scale
        for name in ("noise_sigma", "drift"):
            if getattr(self, name) > INTENSITY_MAX:
                raise ValueError(
                    f"{name} must be at most the full scale {INTENSITY_MAX}, "
                    f"got {getattr(self, name)}"
                )
        if len(self.baseline_levels) != NUM_CHANNELS:
            raise ValueError(f"need {NUM_CHANNELS} baseline levels")
        if any(not INTENSITY_MIN < level < INTENSITY_MAX for level in self.baseline_levels):
            raise ValueError(f"baseline levels must lie inside ({INTENSITY_MIN}, {INTENSITY_MAX})")

    def frames_for(self, duration: float) -> int:
        ratio = real_setting("duration", duration) / self.sample_interval
        if not math.isfinite(ratio):
            raise ValueError(
                f"duration {duration}s yields too many samples at interval "
                f"{self.sample_interval}s"
            )
        n = int(round(ratio))
        if n < 1:
            raise ValueError(
                f"duration {duration}s yields no samples at interval "
                f"{self.sample_interval}s"
            )
        return n


def synth_trace(
    script, profiles: signature.SignatureTable = DEFAULT_PROFILES, cfg: SimConfig = SimConfig()
) -> LabeledTrace:
    """Generate a labeled trace for a scripted gesture sequence.

    profiles gives each gesture's change per sensor (see profile_deltas).
    Each scripted gesture produces: a RELAX hold, a linear TRANSITION ramp
    into the gesture, the gesture hold, and a ramp back. An empty script
    produces a single RELAX hold. Values are rounded to the sensor's integer
    scale and clipped to [0, 1023].
    """
    by_gesture = profile_deltas(profiles)
    script = list(script)
    for gesture in script:
        deltas = by_gesture.get(gesture)
        if deltas is None:
            raise ValueError(f"no profile for scripted gesture {gesture}")
        for ch, delta in enumerate(deltas):
            target = cfg.baseline_levels[ch] + delta
            if not INTENSITY_MIN <= target <= INTENSITY_MAX:
                raise ValueError(
                    f"{gesture} drives channel {ch + 1} to {target}, "
                    f"outside [{INTENSITY_MIN}, {INTENSITY_MAX}]"
                )

    # (label, profile deltas, per-frame progress toward them) sections
    sections = []
    n_relax = cfg.frames_for(cfg.relax_hold)
    n_ramp = cfg.frames_for(cfg.transition_time)
    n_hold = cfg.frames_for(cfg.gesture_hold)
    n = len(script) * (n_relax + 2 * n_ramp + n_hold) if script else n_relax
    too_many = f"the trace would take {n:.3g} samples at interval {cfg.sample_interval}s, too many"
    if 8 * NUM_CHANNELS * n > np.iinfo(np.intp).max:  # one (n, 5) float64 array
        raise ValueError(f"{too_many} for one array")
    try:
        ramp_up = np.arange(1, n_ramp + 1) / (n_ramp + 1)
        relax = (GestureLabel.RELAX, np.zeros(NUM_CHANNELS), np.zeros(n_relax))
        if not script:
            sections.append(relax)
        for gesture in script:
            deltas = np.array(by_gesture[gesture])
            sections.append(relax)
            sections.append((GestureLabel.TRANSITION, deltas, ramp_up))
            sections.append((gesture, deltas, np.ones(n_hold)))
            sections.append((GestureLabel.TRANSITION, deltas, ramp_up[::-1]))

        lengths = [len(progress) for _, _, progress in sections]
        labels = np.repeat([CLASS_INDEX[label] for label, _, _ in sections], lengths)
        targets = np.repeat([deltas for _, deltas, _ in sections], lengths, axis=0)
        targets *= np.concatenate([progress for _, _, progress in sections])[:, None]
        # Per frame the generator draws 5 drift steps, then 5 noise values, and
        # normal(0, s) is 0.0 + s * standard_normal, so standard normals drawn
        # ROW_BLOCK frames at a time reproduce that stream. Each block is scaled
        # into contiguous drift and noise arrays while it is in cache. The
        # steps' running sum from the baseline levels gives each frame's relax
        # levels. The arithmetic runs in place (IEEE + and * commute), which
        # keeps peak memory low.
        rng = np.random.default_rng(cfg.seed)
        values = np.empty((n, NUM_CHANNELS))
        noise = np.empty((n, NUM_CHANNELS))
        block = np.empty((min(n, ROW_BLOCK), 2, NUM_CHANNELS))
        for first in range(0, n, ROW_BLOCK):
            z = block[: n - first]
            rng.standard_normal(out=z)
            rows = slice(first, first + len(z))
            np.multiply(z[:, 0], cfg.drift, values[rows])
            np.multiply(z[:, 1], cfg.noise_sigma, noise[rows])
        values += 0.0
        noise += 0.0
        values[0] += cfg.baseline_levels
        np.add.accumulate(values, axis=0, out=values)
        values += targets
        values += noise
        np.clip(np.rint(values, out=values), INTENSITY_MIN, INTENSITY_MAX, out=values)
        # whole numbers in range, so exact as int64, the dtype LabeledTrace
        # takes; the float array is freed here
        values = values.astype(np.int64)
        t_rel = np.arange(n) * cfg.sample_interval
        return LabeledTrace(
            t_rel=t_rel,
            t_unix=cfg.start_unix + t_rel,
            channels=values,
            labels=labels,
        )
    except MemoryError:  # numpy's words name a shape, not a setting
        raise ValueError(f"{too_many} to hold in memory") from None


def read_script(source) -> list:
    """Script file: one gesture name (EXTEND, FIST or ONE) per line."""
    return [gesture for _, gesture in numbered_rows(source, _parse_script_line)]


def _parse_script_line(line: str) -> GestureLabel:
    gesture = parse_label(line)
    if gesture not in GESTURES:
        raise ValueError(f"{gesture} cannot be scripted")
    return gesture
