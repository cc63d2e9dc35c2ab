"""Global hand motion features: rigid pose per frame, distance-adaptive
amplitude binning, and offset/dynamic pose differences."""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .errors import InvalidConfig
from .geometry import (
    DEFAULT_LAGS,
    cartesian_to_spherical,
    rotation_to_euler,
    with_differences,
)
from .skeleton import SkeletonSequence, palm_radius

# The most amplitude bins allowed. At the template's palm (sigma = 1.5 palm
# radii, 0.06 m) 1000 bins make the narrowest one 0.05 mm wide, far below a
# depth camera's joint noise, so more bins add no information. The edges are
# computed one bin per Python step for every sequence; 1000 cost 0.2-0.35 ms
# on a 2-vCPU x86-64 host, and a few thousand would outweigh the rest of a
# short sequence's extraction.
MAX_DAD_BINS = 1000


def dad_thresholds(bins: int, sigma: float) -> np.ndarray:
    """Bin edges eta_1..eta_M with equal Gaussian mass per bin on [0, sigma].

    The kernel is g(x) = exp(-x^2 / (2 sigma^2)); edge i solves
    integral(g, 0, eta_i) = (i/M) * integral(g, 0, sigma), which has the
    closed form eta_i = sigma * sqrt(2) * erfinv((i/M) * erf(1/sqrt(2))).
    With erf(x/sqrt(2)) = 2 Phi(x) - 1 for the standard normal CDF Phi, that
    is eta_i = sigma * Phi^-1(1/2 + (i/M) * (Phi(1) - 1/2)), evaluated with
    the standard library's normal quantile. The last edge is sigma exactly.
    `bins` runs from 1 to `MAX_DAD_BINS`.
    """
    if not 1 <= bins <= MAX_DAD_BINS or not (np.isfinite(sigma) and sigma > 0):
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


def global_features(pose: tuple[np.ndarray, np.ndarray], thresholds: np.ndarray,
                    lags: tuple[int, ...] = DEFAULT_LAGS) -> np.ndarray:
    """Per-frame global motion features, shape (T, 6 + 6 + 6*len(lags)).

    `pose` is a sequence's rigid pose (R (T, 3, 3), t (T, 3)) as `hand_pose`
    returns it, and `thresholds` are its DAD bin edges
    (`dad_config_for_sequence`). Each frame yields
    [rho_bin, theta, phi, r_x, r_y, r_z], its offset from frame 1, and its
    differences to the frames `lags` steps back (clamped to frame 1).
    """
    rot, trans = pose
    rho, theta, azimuth = cartesian_to_spherical(trans)
    phi = np.stack([discretize_rho(rho, thresholds), theta, azimuth,
                    *rotation_to_euler(rot)], axis=1)
    return with_differences(phi, lags, first_angle=1)
