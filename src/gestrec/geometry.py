"""Rigid-alignment and rotation primitives shared by the feature extractors."""

from __future__ import annotations

import numpy as np

from .errors import GestrecError

DEFAULT_LAGS = (1, 5, 10)


class DegenerateInput(GestrecError):
    """The points and the reference do not fix a unique rotation."""


class NotARotation(GestrecError):
    pass


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.remainder(np.pi - np.asarray(x, dtype=np.float64), 2 * np.pi)


def with_differences(pose: np.ndarray, lags: tuple[int, ...],
                     first_angle: int = 0) -> np.ndarray:
    """Per-frame pose (T, d) extended to (T, d * (2 + len(lags))).

    Appends the offset from frame 1 and the differences to the frames `lags`
    steps back (clamped to frame 1). Difference columns from `first_angle` on
    are wrapped to (-pi, pi]; the ones before it stay plain.
    """
    t = np.arange(pose.shape[0])
    # min() keeps a lag too large for int64 out of numpy's arithmetic
    back = np.stack([np.zeros_like(t)]
                    + [np.maximum(t - min(lag, len(t)), 0) for lag in lags])
    diffs = pose[None] - pose[back]
    diffs[..., first_angle:] = wrap_angle(diffs[..., first_angle:])
    return np.concatenate([pose, *diffs], axis=1)


def kabsch_align(points: np.ndarray, reference: np.ndarray):
    """Least-squares rigid alignment of `reference` onto `points`.

    Returns (R, t) minimizing sum ||R @ reference[i] + t - points[i]||^2 with
    R a proper rotation (the reflection case is repaired by flipping the sign
    of the smallest singular value). `points` is one frame (N, 3), giving R
    (3, 3) and t (3,), or a frame stack (T, N, 3), giving R (T, 3, 3) and
    t (T, 3); `reference` is (N, 3).

    R is unique only when H = q^T p, of the centered reference q and points p,
    has rank >= 2: a frame with s1(H) <= 1e-12 * max(|p|_F, 1) * max(|q|_F, 1)
    raises `DegenerateInput`, a frame of a stack named by its index. As s1(H)
    <= min(s0(q) s1(p), s1(q) s0(p)) and s0(X) <= |X|_F, every p or q that is
    flat (s1(X) <= 1e-12 * max(s0(X), 1)) is refused, with no SVD of its own.
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2 or ref.shape[1] != 3 or pts.ndim not in (2, 3) \
            or pts.shape[-2:] != ref.shape:
        raise ValueError(f"expected (N, 3) or (T, N, 3) points against an (N, 3) "
                         f"reference, got {pts.shape} vs {ref.shape}")

    centroid_pts = pts.mean(axis=-2)
    centroid_ref = ref.mean(axis=0)
    p = pts - centroid_pts[..., None, :]
    q = ref - centroid_ref

    h = q.T @ p
    u, s, vt = np.linalg.svd(h)
    flat = s[..., 1] <= 1e-12 * np.maximum(np.linalg.norm(p, axis=(-2, -1)), 1.0) \
        * max(np.linalg.norm(q), 1.0)
    if flat.any():
        where = f"frame {np.argmax(flat)}: " if flat.ndim else ""
        raise DegenerateInput(f"{where}the points do not fix a unique rotation")
    flip = np.ones(h.shape[:-1])
    flip[..., 2] = np.sign(np.linalg.det(vt.mT @ u.mT))
    r = (vt.mT * flip[..., None, :]) @ u.mT
    t = centroid_pts - r @ centroid_ref
    return r, t


def euler_to_matrix(rx, ry, rz) -> np.ndarray:
    """Rotation matrix R = Rx @ Ry @ Rz for intrinsic x-y'-z'' Euler angles.

    Scalar angles give one matrix (3, 3); angle arrays of a shape (...) give
    a stack (..., 3, 3).
    """
    # each elementary rotation turns the (i, j) plane and fixes the third axis
    mx, my, mz = (np.zeros(np.shape(a) + (3, 3)) for a in (rx, ry, rz))
    for m, angle, (i, j) in ((mx, rx, (1, 2)), (my, ry, (2, 0)), (mz, rz, (0, 1))):
        c, s = np.cos(angle), np.sin(angle)
        m[..., 3 - i - j, 3 - i - j] = 1.0
        m[..., i, i] = m[..., j, j] = c
        m[..., i, j], m[..., j, i] = -s, s
    return mx @ my @ mz


def rotation_to_euler(r: np.ndarray):
    """Intrinsic x-y'-z'' Euler angles (r_x, r_y, r_z) of a proper rotation
    matrix, the inverse of `euler_to_matrix`.

    `r` is one matrix (3, 3), giving three scalars, or a stack (T, 3, 3),
    giving three (T,) arrays. Near gimbal lock (|sin r_y| > 1 - 1e-9) r_z is
    fixed to 0 and r_x absorbs the rest. atan2's -pi is folded onto +pi.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-2:] != (3, 3) or r.ndim not in (2, 3):
        raise NotARotation(f"expected 3x3 matrix or a stack of them, got {r.shape}")
    if np.max(np.abs(r.mT @ r - np.eye(3))) > 1e-6 or np.any(np.linalg.det(r) < 0):
        raise NotARotation("matrix is not a proper rotation")

    sy = np.clip(r[..., 0, 2], -1.0, 1.0)
    lock = np.abs(sy) > 1.0 - 1e-9
    rx = np.where(lock, np.arctan2(r[..., 2, 1], r[..., 1, 1]),
                  np.arctan2(-r[..., 1, 2], r[..., 2, 2]))
    rz = np.where(lock, 0.0, np.arctan2(-r[..., 0, 1], r[..., 0, 0]))
    angles = np.stack([rx, np.arcsin(sy), rz])
    angles[angles == -np.pi] = np.pi
    return tuple(angles)


def cartesian_to_spherical(v: np.ndarray):
    """(rho, theta, phi): radius, polar angle from +z, azimuth atan2(y, x).

    `v` is one vector (3,), giving three scalars, or a stack (T, 3), giving
    three (T,) arrays. The origin maps to (0, 0, 0); atan2's -pi is folded
    onto +pi.
    """
    v = np.asarray(v, dtype=np.float64)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    rho = np.sqrt(x * x + y * y + z * z)
    origin = rho == 0.0
    theta = np.where(origin, 0.0, np.arccos(np.clip(z / np.where(origin, 1.0, rho), -1.0, 1.0)))
    phi = np.arctan2(y, x)
    phi = np.where(origin, 0.0, np.where(phi == -np.pi, np.pi, phi))
    return rho[()], theta[()], phi[()]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of float64 vectors (..., 3) broadcast against each other.

    Each component is formed from the same two products and one subtraction
    as numpy's `np.cross`, so every byte matches it; its axis moves,
    broadcasting and dtype promotion, costly on small stacks, are skipped.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def rotate_about_axis(v: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation of vector(s) `v` about unit `axis` by `angle`.

    `v` and `axis` (..., 3) and `angle` (...) broadcast against each other,
    so one call rotates a stack of vectors, each about its own axis and by
    its own angle.
    """
    k = np.asarray(axis, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)[..., None]
    c, s = np.cos(angle), np.sin(angle)
    return v * c + cross(k, v) * s + k * np.vecdot(k, v)[..., None] * (1.0 - c)
