"""Finger motion features: 20-DoF joint angles via closed-form inverse
kinematics, plus offset/dynamic pose differences."""

from __future__ import annotations

import numpy as np

from .errors import GestrecError
from .geometry import DEFAULT_LAGS, cross, with_differences
from .hand_model import PALM_NORMAL, REST_DIRECTIONS, hand_pose
from .skeleton import FINGER_NAMES, FINGERS


class ZeroLengthBone(GestrecError):
    def __init__(self, finger: str, segment: str, frame: int | None = None):
        self.finger = finger
        self.segment = segment
        self.frame = frame
        where = "" if frame is None else f"frame {frame}: "
        super().__init__(f"{where}zero-length {segment} bone on {finger}")


def _to_local(pts: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Undo a rigid pose: R^T (p - t) per joint, palm at the origin facing +z."""
    return (pts - trans[..., None, :]) @ rot


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduce(a * b, axis=-1)


def inverse_kinematics(frame: np.ndarray) -> np.ndarray:
    """20 joint angles of a hand frame, (flex, abd, pip, dip) per finger.

    `frame` is (J, 3), giving (20,), or a stack (T, J, 3), giving (T, 20).
    Works on bone directions only (bone lengths cancel), in the hand-local
    frame, so the result is invariant to rigid motion of the whole hand and
    to hand size. MCP abduction is the in-palm-plane rotation away from the
    finger's rest direction; the three flexions stack about the abducted
    lateral axis. Exactly inverts `forward_kinematics` inside the joint box
    where |MCP flexion| < pi/2.
    """
    pts = np.asarray(frame, dtype=np.float64)
    return _local_joint_angles(_to_local(pts, *hand_pose(pts)))


def _local_joint_angles(local: np.ndarray) -> np.ndarray:
    """`inverse_kinematics` of joints already in the hand-local frame."""
    bones = np.diff(local[..., np.array(FINGERS), :], axis=-2)   # (..., 5, 3, 3)
    lengths = np.sqrt(np.add.reduce(bones * bones, axis=-1))
    short = lengths < 1e-12
    if short.any():
        *t, f, b = np.argwhere(short)[0].tolist()
        raise ZeroLengthBone(FINGER_NAMES[f], ("proximal", "middle", "distal")[b], *t)
    unit = bones / lengths[..., None]
    proximal, middle, distal = unit[..., 0, :], unit[..., 1, :], unit[..., 2, :]

    n = PALM_NORMAL
    rest = REST_DIRECTIONS
    in_plane = proximal - _dot(proximal, n)[..., None] * n
    plane_norm = np.sqrt(_dot(in_plane, in_plane))[..., None]
    # a finger along the palm normal has no abduction: keep the rest direction,
    # which makes abd come out as exactly 0
    along_normal = plane_norm < 1e-12
    u1 = np.where(along_normal, rest, in_plane / np.where(along_normal, 1.0, plane_norm))
    abd = np.arctan2(_dot(cross(rest, u1), n), _dot(rest, u1))
    flex = np.arctan2(-_dot(proximal, n), _dot(proximal, u1))
    lateral = cross(n, u1)
    pip_angle = np.arctan2(_dot(cross(proximal, middle), lateral), _dot(proximal, middle))
    dip_angle = np.arctan2(_dot(cross(middle, distal), lateral), _dot(middle, distal))
    angles = np.stack([flex, abd, pip_angle, dip_angle], axis=-1).reshape(*flex.shape[:-1], 20)
    angles[angles == -np.pi] = np.pi
    return angles


def finger_features(positions: np.ndarray, pose: tuple[np.ndarray, np.ndarray],
                    lags: tuple[int, ...] = DEFAULT_LAGS) -> np.ndarray:
    """Per-frame finger motion features, shape (T, 20 + 20 + 20*len(lags)).

    `positions` (T, 22, 3) are a validated sequence's joints and `pose` their
    rigid pose (R, t) as `hand_pose` returns it. Joint angles per frame, their
    offset from frame 1, and differences to the frames `lags` steps back
    (clamped to frame 1); all differences wrapped to (-pi, pi].
    """
    return with_differences(_local_joint_angles(_to_local(positions, *pose)), lags)
