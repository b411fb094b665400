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
from .types import GESTURES, GestureLabel, LabeledTrace, parse_label


def critical_angle(n_medium: float, n_cladding: float) -> float:
    """Minimum total-internal-reflection angle, in degrees."""
    if n_medium <= 0 or n_cladding <= 0:
        raise ValueError("refractive indices must be positive")
    ratio = n_cladding / n_medium
    if ratio >= 1:
        raise ValueError(
            f"no total internal reflection: n_cladding/n_medium = {ratio} >= 1"
        )
    return math.degrees(math.asin(ratio))


@dataclass(frozen=True)
class GestureProfile:
    """Per-sensor steady-state intensity change for one gesture."""

    gesture: GestureLabel
    deltas: tuple  # 5 signed intensity deltas relative to the relax level

    def __post_init__(self):
        if self.gesture not in GESTURES:
            raise ValueError(f"{self.gesture} is not a scriptable gesture")
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        if len(deltas) != 5:
            raise ValueError(f"expected 5 deltas, got {len(deltas)}")
        if any(not math.isfinite(d) for d in deltas):
            raise ValueError("deltas must be finite")
        if all(d == 0 for d in deltas):
            raise ValueError("at least one delta must be nonzero")


# Calibrated defaults: sensor 4 dips by 223 for EXTEND; the short fibers
# (sensors 2-4) carry the bulk of the change, the long ones (1 and 5) little.
DEFAULT_PROFILES = (
    GestureProfile(GestureLabel.EXTEND, (-20.0, -150.0, -180.0, -223.0, -12.0)),
    GestureProfile(GestureLabel.FIST, (-35.0, -210.0, -120.0, -130.0, -25.0)),
    GestureProfile(GestureLabel.ONE, (-15.0, -110.0, -150.0, -175.0, -60.0)),
)

DEFAULT_BASELINE_LEVELS = (340.0, 760.0, 650.0, 800.0, 930.0)


@dataclass(frozen=True)
class SimConfig:
    sample_interval: float = 0.02
    gesture_hold: float = 5.0
    relax_hold: float = 2.0
    transition_time: float = 0.2
    noise_sigma: float = 2.0  # per-sample Gaussian read noise, intensity units
    drift: float = 0.05  # random-walk step sigma per sample on the relax level
    baseline_levels: tuple = DEFAULT_BASELINE_LEVELS
    seed: int = 0
    start_unix: float = 1_577_836_800.0

    def __post_init__(self):
        object.__setattr__(self, "baseline_levels", tuple(self.baseline_levels))
        for name in ("sample_interval", "gesture_hold", "relax_hold", "transition_time",
                     "noise_sigma", "drift", "start_unix"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("sample_interval", "gesture_hold", "relax_hold", "transition_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0 or self.drift < 0:
            raise ValueError("noise_sigma and drift must be non-negative")
        if len(self.baseline_levels) != 5:
            raise ValueError("need 5 baseline levels")
        if any(not 0 < level < 1023 for level in self.baseline_levels):
            raise ValueError("baseline levels must lie inside (0, 1023)")

    def frames_for(self, duration: float) -> int:
        n = int(round(duration / self.sample_interval))
        if n < 1:
            raise ValueError(
                f"duration {duration}s yields no samples at interval "
                f"{self.sample_interval}s"
            )
        return n


def synth_trace(script, profiles=DEFAULT_PROFILES, cfg: SimConfig = SimConfig()) -> LabeledTrace:
    """Generate a labeled trace for a scripted gesture sequence.

    Each scripted gesture produces: a RELAX hold, a linear TRANSITION ramp
    into the gesture, the gesture hold, and a ramp back. An empty script
    produces a single RELAX hold. Values are rounded to the sensor's integer
    scale and clipped to [0, 1023].
    """
    by_gesture = {p.gesture: p for p in profiles}
    script = list(script)
    for gesture in script:
        profile = by_gesture.get(gesture)
        if profile is None:
            raise ValueError(f"no profile for scripted gesture {gesture}")
        for ch, delta in enumerate(profile.deltas):
            target = cfg.baseline_levels[ch] + delta
            if not 0 <= target <= 1023:
                raise ValueError(
                    f"{gesture} drives channel {ch + 1} to {target}, "
                    "outside [0, 1023]"
                )

    # (label, profile deltas, per-frame progress toward them) sections
    sections = []
    n_relax = cfg.frames_for(cfg.relax_hold)
    n_ramp = cfg.frames_for(cfg.transition_time)
    n_hold = cfg.frames_for(cfg.gesture_hold)
    ramp_up = np.arange(1, n_ramp + 1) / (n_ramp + 1)
    relax = (GestureLabel.RELAX, np.zeros(5), np.zeros(n_relax))
    if not script:
        sections.append(relax)
    for gesture in script:
        deltas = np.array(by_gesture[gesture].deltas)
        sections.append(relax)
        sections.append((GestureLabel.TRANSITION, deltas, ramp_up))
        sections.append((gesture, deltas, np.ones(n_hold)))
        sections.append((GestureLabel.TRANSITION, deltas, ramp_up[::-1]))

    labels = tuple(label for label, _, progress in sections for _ in progress)
    n = len(labels)
    targets = np.repeat(
        [deltas for _, deltas, _ in sections], [len(p) for _, _, p in sections], axis=0
    )
    targets *= np.concatenate([progress for _, _, progress in sections])[:, None]
    # Per frame the generator draws 5 drift steps, then 5 noise values, and
    # normal(0, s) is 0.0 + s * standard_normal, so one block of standard
    # normals reproduces that stream. The steps' running sum from the
    # baseline levels gives each frame's relax levels. The arithmetic runs
    # in place (IEEE + and * commute), which keeps peak memory low.
    z = np.random.default_rng(cfg.seed).standard_normal((n, 2, 5))
    values, noise = z[:, 0], z[:, 1]
    values *= cfg.drift
    values += 0.0
    values[0] += cfg.baseline_levels
    np.add.accumulate(values, axis=0, out=values)
    values += targets
    noise *= cfg.noise_sigma
    noise += 0.0
    values += noise
    np.clip(np.rint(values, out=values), 0, 1023, out=values)
    t_rel = np.arange(n) * cfg.sample_interval
    return LabeledTrace(
        t_rel=t_rel,
        t_unix=cfg.start_unix + t_rel,
        channels=values,
        labels=labels,
        sample_interval=cfg.sample_interval,
    )


def read_script(source) -> list:
    """Script file: one gesture name (EXTEND, FIST or ONE) per line."""
    return [gesture for _, gesture in numbered_rows(source, _parse_script_line)]


def _parse_script_line(line: str) -> GestureLabel:
    gesture = parse_label(line)
    if gesture not in GESTURES:
        raise ValueError(f"{gesture} cannot be scripted")
    return gesture


def read_profile_csv(source) -> tuple:
    """Profile file: same `gesture,sensor,delta` schema as signature tables.

    Sensors missing from the file default to a delta of zero.
    """
    table = signature.read_signature_csv(source)
    profiles = {}
    for (gesture, sensor), delta in table.deltas.items():
        profiles.setdefault(gesture, [0.0] * 5)[sensor - 1] = delta
    return tuple(
        GestureProfile(gesture, tuple(deltas)) for gesture, deltas in profiles.items()
    )


def write_profile_csv(profiles, sink) -> None:
    """Write profiles as a 5-sensor signature table, in (gesture, sensor) order."""
    deltas = {
        (p.gesture, sensor): delta
        for p in profiles
        for sensor, delta in enumerate(p.deltas, start=1)
    }
    table = signature.SignatureTable(deltas=deltas, active_sensors=(1, 2, 3, 4, 5))
    signature.write_signature_csv(table, sink)
