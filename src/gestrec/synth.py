"""Parametric synthetic gesture generator and DHG-format export.

Scripts describe a gesture class as piecewise-linear control curves over
normalized time for the 6 global-pose channels and the 20 finger-angle
channels. Subjects get consistent amplitude/speed variation, trials get
fresh noise, and everything is reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import _parse_value, read_settings
from .errors import InvalidConfig
from .hand_model import (
    ANGLE_CHANNELS,
    GLOBAL_CHANNELS,
    forward_kinematics,
)
from .skeleton import SkeletonError, SkeletonSequence, validate_sequence

ANGLE_LIMIT = 1.2
# The longest script duration, in frames: DHG clips run 20-150, and speed jitter
# can nearly double it, to 20 000 frames (11 MB of joint positions) per trial.
MAX_DURATION = 10_000


Curve = tuple[tuple[float, float], ...]  # (time in [0,1], value) control points


@dataclass(frozen=True)
class GestureScript:
    """One synthetic gesture class as control curves over normalized time."""

    name: str
    gesture: int
    curves: dict[str, Curve] = field(default_factory=dict)
    finger: int = 1
    duration: tuple[int, int] = (26, 38)
    amp_jitter: float = 0.18
    speed_jitter: float = 0.15
    noise_sigma: float = 0.001
    # (channel column, times, values) of each non-empty curve, for `sample`
    _tables: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if len(self.duration) != 2 or not 1 <= self.duration[0] <= self.duration[1]:
            raise InvalidConfig(f"script {self.name}: bad duration range {self.duration}")
        if self.duration[1] > MAX_DURATION:
            raise InvalidConfig(f"script {self.name}: duration above {MAX_DURATION} frames")
        if self.gesture < 1 or self.finger not in (1, 2):
            raise InvalidConfig(f"script {self.name}: gesture must be at least 1 and finger "
                                f"1 or 2, got {self.gesture} and {self.finger}")
        for name in ("amp_jitter", "speed_jitter"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InvalidConfig(f"script {self.name}: {name} must be in [0, 1): "
                                    f"{getattr(self, name)}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidConfig(f"script {self.name}: noise_sigma must be finite and "
                                f"non-negative: {self.noise_sigma}")
        for name in ("amp_jitter", "speed_jitter", "noise_sigma"):
            # -0.0 passes the checks above, but numpy refuses it as a width or scale
            object.__setattr__(self, name, abs(getattr(self, name)))
        tables = []
        for channel, points in self.curves.items():
            if channel not in GLOBAL_CHANNELS and channel not in ANGLE_CHANNELS:
                raise InvalidConfig(f"unknown channel {channel!r} in script {self.name}")
            times = np.array([t for t, _ in points], dtype=np.float64)
            values = np.array([v for _, v in points], dtype=np.float64)
            if not (np.all((times >= 0.0) & (times <= 1.0)) and np.all(np.diff(times) > 0)):
                raise InvalidConfig(f"script {self.name}: {channel} times must be finite, "
                                    f"strictly increasing and within [0, 1]")
            if not np.all(np.isfinite(values)):
                raise InvalidConfig(f"script {self.name}: {channel} has a non-finite value")
            if channel in ANGLE_CHANNELS and np.any(np.abs(values) > ANGLE_LIMIT):
                raise InvalidConfig(
                    f"script {self.name}: {channel} exceeds +/-{ANGLE_LIMIT} rad")
            if points:
                tables.append(((GLOBAL_CHANNELS + ANGLE_CHANNELS).index(channel), times, values))
        # converted once here, not per trial
        object.__setattr__(self, "_tables", tuple(tables))

    def sample(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The global pose (len(tau), 6) and finger angles (len(tau), 20) the
        curves give at normalized times `tau`; a channel without one is 0."""
        channels = np.zeros((len(tau), len(GLOBAL_CHANNELS) + len(ANGLE_CHANNELS)))
        for column, times, values in self._tables:
            channels[:, column] = np.interp(tau, times, values)
        return channels[:, :len(GLOBAL_CHANNELS)], channels[:, len(GLOBAL_CHANNELS):]


def _ramp(peak: float) -> Curve:
    return ((0.0, 0.0), (0.2, 0.0), (0.8, peak), (1.0, peak))


def _pulse(peak: float) -> Curve:
    return ((0.0, 0.0), (0.45, peak), (0.75, peak), (1.0, 0.1 * peak))


def _zigzag(peak: float, cycles: int = 3) -> Curve:
    taus = np.linspace(0.0, 1.0, 2 * cycles + 1)
    points = []
    for i, t in enumerate(taus):
        value = peak * (-1.0) ** ((i - 1) // 2) if i % 2 else 0.0
        points.append((float(t), float(value)))
    return tuple(points)


_CURL = {f"{f}_{d}": _pulse(a) for f, a in
         (("thumb", 0.7), ("index", 1.0), ("middle", 1.0), ("ring", 1.0), ("pinky", 0.9))
         for d in ("flex", "pip", "dip")}
_HALF_CURL = {k: _pulse(0.35) for k in _CURL}


def builtin_scripts() -> list[GestureScript]:
    """Six archetypes covering translation, rotation and finger-dominant motion."""
    return [
        GestureScript("swipe", 1, {"tx": _ramp(0.25), "ty": _ramp(0.05)}),
        GestureScript("rotate", 2, {"rz": _ramp(1.1), "rx": _ramp(0.15)}),
        GestureScript("grab", 3, {**_CURL, "tz": _pulse(-0.12)}),
        GestureScript("pinch", 4, {**_HALF_CURL, "tz": _pulse(-0.035)}),
        GestureScript("twist_push", 5, {"ry": _ramp(0.8), "tz": _ramp(0.15),
                                        "index_flex": _pulse(0.5)}),
        GestureScript("shake", 6, {"tx": _zigzag(0.12), "rz": _zigzag(0.25)}),
    ]


def generate_dataset(scripts: list[GestureScript], subjects: int, trials: int,
                     seed: int) -> list[SkeletonSequence]:
    """Render scripts x subjects x trials skeleton sequences, reproducibly;
    a sequence that `validate_sequence` refuses raises `InvalidConfig` naming
    its script, subject and trial."""
    if len(scripts) < 2:
        raise InvalidConfig("need at least 2 distinct scripts")
    if subjects < 1 or trials < 1:
        raise InvalidConfig("subjects and trials must be positive")
    if len({s.gesture for s in scripts}) != len(scripts):
        raise InvalidConfig("scripts must have distinct gesture ids")

    sequences = []
    for si, script in enumerate(scripts):
        for subject in range(1, subjects + 1):
            subj_rng = np.random.default_rng(np.random.SeedSequence([seed, si, subject]))
            amp = 1.0 + subj_rng.uniform(-script.amp_jitter, script.amp_jitter)
            speed = 1.0 + subj_rng.uniform(-script.speed_jitter, script.speed_jitter)
            for trial in range(1, trials + 1):
                trial_rng = np.random.default_rng(
                    np.random.SeedSequence([seed, si, subject, trial]))
                base = trial_rng.integers(script.duration[0], script.duration[1] + 1)
                frames = max(12, int(round(base * speed)))
                trial_amp = amp * (1.0 + trial_rng.uniform(-0.05, 0.05))
                tau = np.linspace(0.0, 1.0, frames)

                pose, angles = script.sample(tau)
                pose *= trial_amp
                angles = np.clip(angles * trial_amp, -ANGLE_LIMIT, ANGLE_LIMIT)

                positions = forward_kinematics(pose, angles)
                positions += trial_rng.normal(0.0, script.noise_sigma, positions.shape)
                seq = SkeletonSequence(positions, gesture=script.gesture,
                                       finger=script.finger, subject=subject, trial=trial)
                try:
                    sequences.append(validate_sequence(seq))
                except SkeletonError as e:
                    raise InvalidConfig(f"script {script.name}, subject {subject}, "
                                        f"trial {trial}: {e}") from e
    return sequences


def export_dhg_tree(sequences: list[SkeletonSequence], root: str | Path) -> Path:
    """Write sequences as a DHG-style directory tree of skeletons_world.txt files."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for seq in sequences:
        directory = (root / f"gesture_{seq.gesture}" / f"finger_{seq.finger}"
                     / f"subject_{seq.subject}" / f"essai_{seq.trial}")
        directory.mkdir(parents=True, exist_ok=True)
        flat = seq.positions.reshape(seq.num_frames, -1)
        # "%.9g" % v is format(v, ".9g"), one formatting call per row
        row_format = " ".join(["%.9g"] * flat.shape[1])
        lines = [row_format % tuple(row) for row in flat.tolist()]
        (directory / "skeletons_world.txt").write_text("\n".join(lines) + "\n")
    return root


def parse_scripts(path: str | Path) -> list[GestureScript]:
    """Read gesture scripts from a text config.

    Format: `[script NAME]` sections with `key = value` lines. Curve channels
    take comma-separated `time:value` control points; `gesture` (an int) and
    every other field with a default are read like `--config` values, in the
    format of that default. A key set twice in one section is refused.
    """
    # a scalar key's default gives its format; `gesture` has none and is an int
    formats = {f.name: f.default for f in fields(GestureScript)
               if f.init and f.default is not MISSING}
    formats["gesture"] = 1
    scripts = []
    for name, entries in read_settings(path, InvalidConfig, section="script"):
        values, curves = {}, {}
        for key, (where, value) in entries.items():
            try:
                if key in formats:
                    values[key] = _parse_value(key, value, formats[key])
                else:
                    pairs = (chunk.split(":") for chunk in value.split(","))
                    curves[key] = tuple((float(t), float(v)) for t, v in pairs)
            except ValueError as e:
                raise InvalidConfig(f"{where}: bad value for {key!r}: {value!r} ({e})") from e
        if "gesture" not in values:
            raise InvalidConfig(f"script {name}: missing gesture id")
        scripts.append(GestureScript(name=name, curves=curves, **values))
    if not scripts:
        raise InvalidConfig(f"no scripts found in {path}")
    return scripts
