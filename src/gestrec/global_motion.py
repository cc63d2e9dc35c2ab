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
    rotation_to_euler,
    with_differences,
)
from .hand_model import hand_pose
from .skeleton import SkeletonSequence, palm_radius


@dataclass(frozen=True)
class GlobalPose:
    """Rigid pose: Euler rotation + spherical translation, three scalars each
    for one frame or three (T,) arrays each for a frame stack."""

    rotation: tuple
    translation_spherical: tuple


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


def dad_config_for_sequence(seq: SkeletonSequence, bins: int = 5,
                            sigma_scale: float = 1.5) -> np.ndarray:
    """A sequence's `dad_thresholds` edges, with sigma = sigma_scale *
    first-frame palm radius."""
    return dad_thresholds(bins, sigma_scale * palm_radius(seq.positions[0]))


def discretize_rho(rho, thresholds: np.ndarray):
    """1-based bin index: smallest i with rho <= eta_i (the `dad_thresholds`
    edges), clamped to the top bin, len(thresholds).

    `rho` is a scalar or an array; the result has its shape.
    """
    return np.minimum(np.searchsorted(thresholds, rho, side="left") + 1, len(thresholds))


def frame_global_pose(frame: np.ndarray, convention: str = "xyz") -> GlobalPose:
    """The hand's rigid pose (`hand_pose`) of one frame (22, 3), or of each
    frame of a stack (T, 22, 3), as Euler angles and a spherical translation."""
    return _global_pose(*hand_pose(frame), convention)


def _global_pose(rot: np.ndarray, trans: np.ndarray, convention: str) -> GlobalPose:
    return GlobalPose(rotation_to_euler(rot, convention), cartesian_to_spherical(trans))


def global_features(seq: SkeletonSequence, thresholds: np.ndarray | None = None,
                    lags: tuple[int, ...] = DEFAULT_LAGS,
                    convention: str = "xyz", *,
                    pose: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per-frame global motion features, shape (T, 6 + 6 + 6*len(lags)).

    Each frame yields [rho_bin, theta, phi, r_x, r_y, r_z], its offset from
    frame 1, and its differences to the frames `lags` steps back (clamped to
    frame 1). `thresholds` are the DAD bin edges, `dad_config_for_sequence`'s
    by default. `pose` is the sequence's (R (T, 3, 3), t (T, 3)) as
    `hand_pose` returns it; without it the pose is solved here. Expects a
    validated sequence.
    """
    if thresholds is None:
        thresholds = dad_config_for_sequence(seq)
    if pose is None:
        pose = hand_pose(seq.positions)
    rigid = _global_pose(*pose, convention)
    rho, theta, azimuth = rigid.translation_spherical
    phi = np.stack([discretize_rho(rho, thresholds), theta, azimuth, *rigid.rotation], axis=1)
    return with_differences(phi, lags, first_angle=1)
