"""Finger motion features: 20-DoF joint angles via closed-form inverse
kinematics, plus offset/dynamic pose differences."""

from __future__ import annotations

import numpy as np

from .errors import GestrecError
from .geometry import DEFAULT_LAGS, DegenerateInput, kabsch_align, with_differences
from .hand_model import DEFAULT_TEMPLATE, PALM_NORMAL, HandTemplate, reference_palm
from .skeleton import DEFAULT_LAYOUT, FINGER_NAMES, JointLayout, SkeletonSequence


class ZeroLengthBone(GestrecError):
    def __init__(self, finger: str, segment: str):
        self.finger = finger
        self.segment = segment
        super().__init__(f"zero-length {segment} bone on {finger}")


def hand_local_frame(frame: np.ndarray, layout: JointLayout = DEFAULT_LAYOUT,
                     template: HandTemplate = DEFAULT_TEMPLATE):
    """Undo the global rigid pose of a frame.

    Returns (local_joints, rotation, translation) where
    local = R^T (p - t) for every joint, so the palm ends up centered at the
    origin facing +z regardless of where the hand is in the world.
    """
    pts = np.asarray(frame, dtype=np.float64)
    rot, trans = kabsch_align(pts[list(layout.global_indices)], reference_palm(template))
    return (pts - trans) @ rot, rot, trans


def _unit(v: np.ndarray, finger: str, segment: str) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ZeroLengthBone(finger, segment)
    return v / norm


def inverse_kinematics(frame: np.ndarray, layout: JointLayout = DEFAULT_LAYOUT,
                       template: HandTemplate = DEFAULT_TEMPLATE) -> np.ndarray:
    """20 joint angles of a hand frame, (flex, abd, pip, dip) per finger.

    Works on bone directions only (bone lengths cancel), in the hand-local
    frame, so the result is invariant to rigid motion of the whole hand and
    to hand size. MCP abduction is the in-palm-plane rotation away from the
    finger's rest direction; the three flexions stack about the abducted
    lateral axis. Exactly inverts `forward_kinematics` inside the joint box
    where |MCP flexion| < pi/2.
    """
    local, _, _ = hand_local_frame(frame, layout, template)
    n = PALM_NORMAL
    angles = np.empty(20)
    for f, quad in enumerate(layout.fingers):
        name = FINGER_NAMES[f]
        mcp, pip, dip, tip = local[list(quad)]
        proximal = _unit(pip - mcp, name, "proximal")
        middle = _unit(dip - pip, name, "middle")
        distal = _unit(tip - dip, name, "distal")

        rest = template.rest_directions[f]
        in_plane = proximal - np.dot(proximal, n) * n
        plane_norm = np.linalg.norm(in_plane)
        if plane_norm < 1e-12:
            # finger points along the palm normal: abduction is undefined
            abd = 0.0
            u1 = rest
        else:
            u1 = in_plane / plane_norm
            abd = np.arctan2(np.dot(np.cross(rest, u1), n), np.dot(rest, u1))
        flex = np.arctan2(-np.dot(proximal, n), np.dot(proximal, u1))
        lateral = np.cross(n, u1)
        pip_angle = np.arctan2(np.dot(np.cross(proximal, middle), lateral),
                               np.dot(proximal, middle))
        dip_angle = np.arctan2(np.dot(np.cross(middle, distal), lateral),
                               np.dot(middle, distal))
        angles[4 * f: 4 * f + 4] = (flex, abd, pip_angle, dip_angle)
    angles[angles == -np.pi] = np.pi
    return angles


def finger_features(seq: SkeletonSequence, layout: JointLayout = DEFAULT_LAYOUT,
                    template: HandTemplate = DEFAULT_TEMPLATE,
                    lags: tuple[int, ...] = DEFAULT_LAGS) -> np.ndarray:
    """Per-frame finger motion features, shape (T, 20 + 20 + 20*len(lags)).

    Joint angles per frame, their offset from frame 1, and differences to the
    frames `lags` steps back (clamped to frame 1); all differences wrapped to
    (-pi, pi]. Expects a validated sequence.
    """
    pos = seq.positions
    t_count = pos.shape[0]
    theta = np.empty((t_count, 20))
    for t in range(t_count):
        try:
            theta[t] = inverse_kinematics(pos[t], layout, template)
        except (DegenerateInput, ZeroLengthBone) as e:
            e.args = (f"frame {t}: {e}",)
            raise

    return with_differences(theta, lags)
