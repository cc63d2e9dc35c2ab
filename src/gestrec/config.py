"""Pipeline configuration: every tunable default, overridable from a plain
`key = value` text file."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import GestrecError
from .geometry import DEFAULT_LAGS


class ConfigError(GestrecError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    # feature extraction
    dad_bins: int = 5
    sigma_scale: float = 1.5
    lags: tuple[int, ...] = DEFAULT_LAGS
    euler_convention: str = "xyz"
    # network architecture
    branches: tuple[str, ...] = ("global", "finger", "skeleton")
    lstm_hidden: int = 100
    fc_out: int = 128
    head: tuple[int, ...] = (256, 128)
    dropout: float = 0.3
    bidirectional: bool = True
    # optimization
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100
    clip_norm: float = 5.0
    stop_accuracy: float = 0.0
    # evaluation
    fine_gestures: tuple[int, ...] = (1, 3, 4, 5, 6)

    def __post_init__(self):
        if self.dad_bins < 1:
            raise ConfigError(f"dad_bins must be positive: {self.dad_bins}")
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0):
            raise ConfigError(f"sigma_scale must be finite and positive: {self.sigma_scale}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")
        if self.euler_convention not in ("xyz", "zyx"):
            raise ConfigError(f"euler_convention must be xyz or zyx: {self.euler_convention}")
        for name in self.branches:
            if name not in ("global", "finger", "skeleton"):
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
        check_optimization(self, ConfigError)


def check_optimization(config, error: type[GestrecError]) -> None:
    """Raise `error` unless the optimization fields of `config`, a
    `PipelineConfig` or a `network.TrainConfig`, are usable."""
    for name in ("batch_size", "epochs"):
        if getattr(config, name) < 1:
            raise error(f"{name} must be positive: {getattr(config, name)}")
    for name in ("learning_rate", "epsilon", "clip_norm"):
        if not (math.isfinite(getattr(config, name)) and getattr(config, name) >= 0):
            raise error(f"{name} must be finite and non-negative: {getattr(config, name)}")
    if config.epsilon == 0:
        raise error("epsilon must be positive: 0")
    for name in ("beta1", "beta2"):
        if not 0.0 <= getattr(config, name) < 1.0:
            raise error(f"{name} must be in [0, 1): {getattr(config, name)}")
    if not 0.0 <= config.stop_accuracy <= 1.0:
        raise error(f"stop_accuracy must be in [0, 1]: {config.stop_accuracy}")


_INT_TUPLES = {"lags", "head", "fine_gestures"}
_STR_TUPLES = {"branches"}
_BOOLS = {"bidirectional"}


def _parse_value(name: str, text: str, target_type: type):
    if name in _INT_TUPLES:
        return tuple(int(x) for x in text.replace(",", " ").split())
    if name in _STR_TUPLES:
        return tuple(x.strip() for x in text.split(",") if x.strip())
    if name in _BOOLS:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {text!r}")
    return target_type(text)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Apply `key = value` overrides from a text file to the defaults."""
    config = PipelineConfig()
    if path is None:
        return config
    known = {f.name: f.type for f in fields(PipelineConfig)}
    typed = {f.name: type(getattr(config, f.name)) for f in fields(PipelineConfig)}
    overrides = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _parse_value(key, value, typed[key])
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
    try:
        return replace(config, **overrides)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
