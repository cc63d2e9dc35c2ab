"""Pipeline configuration: every tunable default, overridable from a plain
`key = value` text file."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import GestrecError
from .geometry import DEFAULT_LAGS
from .global_motion import MAX_DAD_BINS

# the three per-frame streams of the paper's model, one network branch each
FEATURE_KINDS = ("global", "finger", "skeleton")


class ConfigError(GestrecError):
    pass


@dataclass(frozen=True)
class Optimization:
    """Adam's and the training loop's settings, shared by `PipelineConfig` and
    `network.TrainConfig`; `error` is the exception a bad value raises."""

    error = ConfigError
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100
    clip_norm: float = 5.0      # 0 disables clipping
    stop_accuracy: float = 0.0  # 0 disables early stopping

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise self.error(f"{name} must be positive: {getattr(self, name)}")
        for name in ("learning_rate", "epsilon", "clip_norm"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise self.error(f"{name} must be finite and non-negative: {getattr(self, name)}")
        if self.epsilon == 0:
            raise self.error("epsilon must be positive: 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise self.error(f"{name} must be in [0, 1): {getattr(self, name)}")
        if not 0.0 <= self.stop_accuracy <= 1.0:
            raise self.error(f"stop_accuracy must be in [0, 1]: {self.stop_accuracy}")


@dataclass(frozen=True)
class PipelineConfig(Optimization):
    # feature extraction
    dad_bins: int = 5
    sigma_scale: float = 1.5
    lags: tuple[int, ...] = DEFAULT_LAGS
    # network architecture; `branches` also picks the streams extracted
    branches: tuple[str, ...] = FEATURE_KINDS
    lstm_hidden: int = 100
    fc_out: int = 128
    head: tuple[int, ...] = (256, 128)
    dropout: float = 0.3
    bidirectional: bool = True
    # evaluation
    fine_gestures: tuple[int, ...] = (1, 3, 4, 5, 6)

    def __post_init__(self):
        if not 1 <= self.dad_bins <= MAX_DAD_BINS:
            raise ConfigError(f"dad_bins must be in [1, {MAX_DAD_BINS}]: {self.dad_bins}")
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0):
            raise ConfigError(f"sigma_scale must be finite and positive: {self.sigma_scale}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")
        for name in self.branches:
            if name not in FEATURE_KINDS:
                raise ConfigError(f"unknown branch: {name}")
        if not self.branches:
            raise ConfigError("at least one branch required")
        if len(set(self.branches)) < len(self.branches):
            raise ConfigError(f"branches repeat a name: {', '.join(self.branches)}")
        for name in ("lstm_hidden", "fc_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive: {getattr(self, name)}")
        if any(width < 1 for width in self.head):
            raise ConfigError(f"head widths must be positive: {self.head}")
        if any(lag < 1 for lag in self.lags):
            raise ConfigError(f"lags must be positive: {self.lags}")
        super().__post_init__()


def read_settings(path: str | Path, error: type[GestrecError], section: str | None = None):
    """The sections of the UTF-8 settings file at `path`, in file order, as
    (name, {key: (`path:line`, value text)}) pairs; text after `#` is a comment.
    Without `section` the file is one unnamed section, named None; with it, each
    section opens with a `[section NAME]` line. A non-UTF-8 file, a bad header,
    a key line before the first header, a line without `=` and a key set twice
    in one section raise `error`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e})") from e
    sections = [] if section else [(None, {})]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, where = raw.split("#", 1)[0].strip(), f"{path}:{lineno}"
        if not line:
            continue
        if section and line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != section:
                raise error(f"{where}: bad section header: {raw!r}")
            sections.append((parts[1], {}))
            continue
        if not sections:
            raise error(f"{where}: unexpected line outside a {section} section: {raw!r}")
        if "=" not in line:
            raise error(f"{where}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        entries = sections[-1][1]
        if key in entries:
            raise error(f"{where}: {key!r} is already set at {entries[key][0]}")
        entries[key] = (where, value)
    return sections


def _parse_value(name: str, text: str, default):
    """`text` read in the format of the field whose default is `default`."""
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {text!r}")
    if isinstance(default, tuple):
        parts = text.split(",") if isinstance(default[0], str) else text.replace(",", " ").split()
        return tuple(type(default[0])(x.strip()) for x in parts if x.strip())
    return type(default)(text)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Apply `key = value` overrides from a text file to the defaults; a key
    set twice is refused."""
    config = PipelineConfig()
    if path is None:
        return config
    defaults = {f.name: getattr(config, f.name) for f in fields(PipelineConfig)}
    [(_, entries)] = read_settings(path, ConfigError)
    overrides = {}
    for key, (where, value) in entries.items():
        if key not in defaults:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            overrides[key] = _parse_value(key, value, defaults[key])
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{where}: {e}") from e
    try:
        return replace(config, **overrides)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
