"""Kinematic hand template: rest pose, reference palm and forward kinematics.

The template is a flat right hand in canonical pose: palm plane = x-y plane,
palm normal along +z (toward the camera), fingers fanning out radially. The
whole rest pose is shifted so the centroid of its seven global-status points
(wrist, palm, five MCPs) sits at the origin; that same seven-point set is the
alignment reference used for global pose estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import euler_to_matrix, rotate_about_axis
from .skeleton import DEFAULT_LAYOUT, FINGER_NAMES, JointLayout

PALM_ARC_RADIUS = 0.04
WRIST_POSITION = np.array([0.0, -0.08, 0.0])
FINGER_AZIMUTH_DEG = (-40.0, -20.0, 0.0, 20.0, 40.0)
PALM_NORMAL = np.array([0.0, 0.0, 1.0])

# (proximal, middle, distal) bone lengths in meters, thumb..pinky
BONE_LENGTHS = (
    (0.040, 0.032, 0.028),
    (0.040, 0.025, 0.022),
    (0.043, 0.028, 0.024),
    (0.040, 0.026, 0.023),
    (0.032, 0.020, 0.019),
)

DOF_NAMES = ("flex", "abd", "pip", "dip")
ANGLE_CHANNELS = tuple(f"{f}_{d}" for f in FINGER_NAMES for d in DOF_NAMES)
GLOBAL_CHANNELS = ("rx", "ry", "rz", "tx", "ty", "tz")


def finger_rest_directions() -> np.ndarray:
    """Unit in-plane direction each finger extends along at rest, (5, 3)."""
    az = np.deg2rad(FINGER_AZIMUTH_DEG)
    return np.stack([np.sin(az), np.cos(az), np.zeros(5)], axis=1)


@dataclass(frozen=True)
class HandTemplate:
    """Rest-pose joint positions plus per-finger bone lengths."""

    rest_positions: np.ndarray           # (J, 3)
    bone_lengths: np.ndarray             # (5, 3)
    rest_directions: np.ndarray          # (5, 3) unit vectors
    layout: JointLayout = DEFAULT_LAYOUT

    def __post_init__(self):
        if np.any(self.bone_lengths <= 0):
            raise ValueError("bone lengths must be positive")


def default_template(layout: JointLayout = DEFAULT_LAYOUT) -> HandTemplate:
    dirs = finger_rest_directions()
    lengths = np.array(BONE_LENGTHS)
    pos = np.zeros((layout.joint_count, 3))
    pos[layout.wrist_index] = WRIST_POSITION
    pos[layout.palm_index] = 0.0
    for f, quad in enumerate(layout.fingers):
        pos[quad[0]] = PALM_ARC_RADIUS * dirs[f]
    # center the seven global-status points at the origin, then grow the
    # finger chains from the centered MCPs (the same order of operations as
    # forward kinematics, so FK at zero angles is bit-exact)
    pos -= pos[list(layout.global_indices)].mean(axis=0)
    for f, quad in enumerate(layout.fingers):
        pos[quad[1]] = pos[quad[0]] + lengths[f, 0] * dirs[f]
        pos[quad[2]] = pos[quad[1]] + lengths[f, 1] * dirs[f]
        pos[quad[3]] = pos[quad[2]] + lengths[f, 2] * dirs[f]
    return HandTemplate(pos, lengths, dirs, layout)


DEFAULT_TEMPLATE = default_template()


def reference_palm(template: HandTemplate = DEFAULT_TEMPLATE) -> np.ndarray:
    """The (7, 3) canonical wrist/palm/MCP point set, centroid at the origin."""
    return template.rest_positions[list(template.layout.global_indices)].copy()


def forward_kinematics(template: HandTemplate, global_pose, angles) -> np.ndarray:
    """Pose the hand template and return world-space joints.

    `global_pose` is 6 values: Euler rotation (rx, ry, rz) in the intrinsic
    x-y'-z'' convention followed by a Cartesian translation (tx, ty, tz).
    `angles` is 20 values, four per finger in (flex, abd, pip, dip) order.
    One frame, (6,) and (20,), gives (J, 3); a stack, (T, 6) and (T, 20),
    gives (T, J, 3).

    MCP abduction rotates each finger's rest direction inside the palm
    plane, MCP flexion bends it about the abducted lateral axis, and PIP/DIP
    flexions continue about that same axis. Positive flexion bends away from
    the palm normal.
    """
    pose = np.asarray(global_pose, dtype=np.float64)
    th = np.asarray(angles, dtype=np.float64)
    flex, abd, pip, dip = np.moveaxis(th.reshape(th.shape[:-1] + (5, 4)), -1, 0)
    u1 = rotate_about_axis(template.rest_directions, PALM_NORMAL, abd)
    lateral = np.cross(PALM_NORMAL, u1)
    proximal = rotate_about_axis(u1, lateral, flex)
    middle = rotate_about_axis(proximal, lateral, pip)
    distal = rotate_about_axis(middle, lateral, dip)

    mcp, pip_joint, dip_joint, tip = np.array(template.layout.fingers).T
    lengths = template.bone_lengths[..., None]
    local = np.broadcast_to(template.rest_positions,
                            th.shape[:-1] + template.rest_positions.shape).copy()
    local[..., pip_joint, :] = local[..., mcp, :] + lengths[:, 0] * proximal
    local[..., dip_joint, :] = local[..., pip_joint, :] + lengths[:, 1] * middle
    local[..., tip, :] = local[..., dip_joint, :] + lengths[:, 2] * distal
    r = euler_to_matrix(pose[..., 0], pose[..., 1], pose[..., 2])
    return local @ r.mT + pose[..., None, 3:6]
