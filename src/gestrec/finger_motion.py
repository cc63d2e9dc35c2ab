"""Finger motion features: 20-DoF joint angles via closed-form inverse
kinematics, plus offset/dynamic pose differences."""

from __future__ import annotations

import numpy as np

from .errors import GestrecError
from .geometry import DEFAULT_LAGS, with_differences
from .hand_model import PALM_NORMAL, REST_DIRECTIONS, hand_pose
from .skeleton import FINGER_NAMES, FINGERS, SkeletonSequence


class ZeroLengthBone(GestrecError):
    def __init__(self, finger: str, segment: str, frame: int | None = None):
        self.finger = finger
        self.segment = segment
        self.frame = frame
        where = "" if frame is None else f"frame {frame}: "
        super().__init__(f"{where}zero-length {segment} bone on {finger}")


def hand_local_frame(frame: np.ndarray):
    """Undo the hand's rigid pose (`hand_pose`) of a frame (22, 3) or of each
    frame of a stack (T, 22, 3).

    Returns (local_joints, rotation, translation) where
    local = R^T (p - t) for every joint, so the palm ends up centered at the
    origin facing +z regardless of where the hand is in the world.
    """
    pts = np.asarray(frame, dtype=np.float64)
    rot, trans = hand_pose(pts)
    return _to_local(pts, rot, trans), rot, trans


def _to_local(pts: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    return (pts - trans[..., None, :]) @ rot


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


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
    local, _, _ = hand_local_frame(frame)
    return _local_joint_angles(local)


def _local_joint_angles(local: np.ndarray) -> np.ndarray:
    """`inverse_kinematics` of joints already in the hand-local frame."""
    bones = np.diff(local[..., np.array(FINGERS), :], axis=-2)   # (..., 5, 3, 3)
    lengths = np.linalg.norm(bones, axis=-1)
    short = lengths < 1e-12
    if short.any():
        *t, f, b = np.argwhere(short)[0].tolist()
        raise ZeroLengthBone(FINGER_NAMES[f], ("proximal", "middle", "distal")[b], *t)
    proximal, middle, distal = np.moveaxis(bones / lengths[..., None], -2, 0)

    n = PALM_NORMAL
    rest = REST_DIRECTIONS
    in_plane = proximal - _dot(proximal, n)[..., None] * n
    plane_norm = np.linalg.norm(in_plane, axis=-1)[..., None]
    # a finger along the palm normal has no abduction: keep the rest direction,
    # which makes abd come out as exactly 0
    along_normal = plane_norm < 1e-12
    u1 = np.where(along_normal, rest, in_plane / np.where(along_normal, 1.0, plane_norm))
    abd = np.arctan2(_dot(np.cross(rest, u1), n), _dot(rest, u1))
    flex = np.arctan2(-_dot(proximal, n), _dot(proximal, u1))
    lateral = np.cross(n, u1)
    pip_angle = np.arctan2(_dot(np.cross(proximal, middle), lateral), _dot(proximal, middle))
    dip_angle = np.arctan2(_dot(np.cross(middle, distal), lateral), _dot(middle, distal))
    angles = np.stack([flex, abd, pip_angle, dip_angle], axis=-1).reshape(*flex.shape[:-1], 20)
    angles[angles == -np.pi] = np.pi
    return angles


def finger_features(seq: SkeletonSequence, lags: tuple[int, ...] = DEFAULT_LAGS, *,
                    pose: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per-frame finger motion features, shape (T, 20 + 20 + 20*len(lags)).

    Joint angles per frame, their offset from frame 1, and differences to the
    frames `lags` steps back (clamped to frame 1); all differences wrapped to
    (-pi, pi]. `pose` is the sequence's (R, t) as `hand_pose` returns it;
    without it the pose is solved here. Expects a validated sequence.
    """
    if pose is None:
        pose = hand_pose(seq.positions)
    return with_differences(_local_joint_angles(_to_local(seq.positions, *pose)), lags)
