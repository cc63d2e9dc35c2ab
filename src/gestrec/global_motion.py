"""Global hand motion features: rigid pose per frame, distance-adaptive
amplitude binning, and offset/dynamic pose differences."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidConfig
from .geometry import (
    DEFAULT_LAGS,
    cartesian_to_spherical,
    kabsch_align,
    rotation_to_euler,
    with_differences,
)
from .hand_model import DEFAULT_TEMPLATE, reference_palm
from .skeleton import DEFAULT_LAYOUT, JointLayout, SkeletonSequence, palm_radius


@dataclass(frozen=True)
class GlobalPose:
    """Rigid pose: Euler rotation + spherical translation, three scalars each
    for one frame or three (T,) arrays each for a frame stack."""

    rotation: tuple
    translation_spherical: tuple


@dataclass(frozen=True)
class DadConfig:
    """Distance-adaptive discretization of translation amplitude.

    `thresholds` are the equal-Gaussian-mass bin edges on [0, sigma]; the last
    edge equals sigma and larger amplitudes clamp into the top bin.
    """

    bins: int
    sigma: float
    thresholds: np.ndarray

    def __post_init__(self):
        if self.bins < 1 or not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidConfig(f"bins={self.bins}, sigma={self.sigma}")
        edges = np.asarray(self.thresholds, dtype=np.float64)
        if edges.shape != (self.bins,):
            raise InvalidConfig(f"expected {self.bins} thresholds, got {edges.shape}")
        if np.any(np.diff(edges) <= 0):
            raise InvalidConfig("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", edges)


def dad_thresholds(bins: int, sigma: float) -> np.ndarray:
    """Bin edges eta_1..eta_M with equal Gaussian mass per bin on [0, sigma].

    The kernel is g(x) = exp(-x^2 / (2 sigma^2)); edge i solves
    integral(g, 0, eta_i) = (i/M) * integral(g, 0, sigma), which has the
    closed form eta_i = sigma * sqrt(2) * erfinv((i/M) * erf(1/sqrt(2))).
    With erf(x/sqrt(2)) = 2 Phi(x) - 1 for the standard normal CDF Phi, that
    is eta_i = sigma * Phi^-1(1/2 + (i/M) * (Phi(1) - 1/2)), evaluated with
    the standard library's normal quantile. The last edge is sigma exactly.
    """
    if bins < 1 or not (np.isfinite(sigma) and sigma > 0):
        raise InvalidConfig(f"bins={bins}, sigma={sigma}")
    unit = NormalDist()
    half_mass = unit.cdf(1.0) - 0.5
    edges = [sigma * unit.inv_cdf(0.5 + i / bins * half_mass) for i in range(1, bins)]
    return np.array(edges + [sigma], dtype=np.float64)


def make_dad_config(bins: int, sigma: float) -> DadConfig:
    return DadConfig(bins, sigma, dad_thresholds(bins, sigma))


def dad_config_for_sequence(seq: SkeletonSequence, layout: JointLayout = DEFAULT_LAYOUT,
                            bins: int = 5, sigma_scale: float = 1.5) -> DadConfig:
    """Per-sequence config with sigma = sigma_scale * first-frame palm radius."""
    return make_dad_config(bins, sigma_scale * palm_radius(seq.positions[0], layout))


def discretize_rho(rho, config: DadConfig):
    """1-based bin index: smallest i with rho <= eta_i, clamped to the top bin.

    `rho` is a scalar or an array; the result has its shape.
    """
    return np.minimum(np.searchsorted(config.thresholds, rho, side="left") + 1, config.bins)


def frame_global_pose(frame: np.ndarray, layout: JointLayout = DEFAULT_LAYOUT,
                      reference: np.ndarray | None = None,
                      convention: str = "xyz") -> GlobalPose:
    """Kabsch-estimated rigid pose of one frame (J, 3), or of each frame of a
    stack (T, J, 3), against the reference palm."""
    if reference is None:
        reference = reference_palm(DEFAULT_TEMPLATE)
    points = np.asarray(frame, dtype=np.float64)[..., list(layout.global_indices), :]
    return _global_pose(*kabsch_align(points, reference), convention)


def _global_pose(rot: np.ndarray, trans: np.ndarray, convention: str) -> GlobalPose:
    return GlobalPose(rotation_to_euler(rot, convention), cartesian_to_spherical(trans))


def global_features(seq: SkeletonSequence, layout: JointLayout = DEFAULT_LAYOUT,
                    config: DadConfig | None = None,
                    lags: tuple[int, ...] = DEFAULT_LAGS,
                    convention: str = "xyz", *,
                    pose: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per-frame global motion features, shape (T, 6 + 6 + 6*len(lags)).

    Each frame yields [rho_bin, theta, phi, r_x, r_y, r_z], its offset from
    frame 1, and its differences to the frames `lags` steps back (clamped to
    frame 1). `pose` is the sequence's Kabsch (R (T, 3, 3), t (T, 3)) against
    the reference palm, as `kabsch_align` returns it; without it the pose is
    solved here against the default template's palm. Expects a validated
    sequence.
    """
    if config is None:
        config = dad_config_for_sequence(seq, layout)
    if pose is None:
        rigid = frame_global_pose(seq.positions, layout, convention=convention)
    else:
        rigid = _global_pose(*pose, convention)
    rho, theta, azimuth = rigid.translation_spherical
    phi = np.stack([discretize_rho(rho, config), theta, azimuth, *rigid.rotation], axis=1)
    return with_differences(phi, lags, first_angle=1)
