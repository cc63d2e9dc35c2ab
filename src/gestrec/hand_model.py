"""Kinematic hand template: rest pose, reference palm, the hand's rigid pose
and forward kinematics.

The template is a flat right hand in canonical pose: palm plane = x-y plane,
palm normal along +z (toward the camera), fingers fanning out radially. The
whole rest pose is shifted so the centroid of its seven global-status points
(wrist, palm, five MCPs) sits at the origin; that same seven-point set is the
alignment reference used for global pose estimation.
"""

from __future__ import annotations

import numpy as np

from .geometry import euler_to_matrix, kabsch_align, rotate_about_axis
from .skeleton import FINGER_NAMES, FINGERS, GLOBAL_POINTS, JOINT_COUNT, MCPS, WRIST

PALM_ARC_RADIUS = 0.04
WRIST_POSITION = np.array([0.0, -0.08, 0.0])
FINGER_AZIMUTH_DEG = (-40.0, -20.0, 0.0, 20.0, 40.0)
PALM_NORMAL = np.array([0.0, 0.0, 1.0])

# (proximal, middle, distal) bone lengths in meters, thumb..pinky
BONE_LENGTHS = np.array((
    (0.040, 0.032, 0.028),
    (0.040, 0.025, 0.022),
    (0.043, 0.028, 0.024),
    (0.040, 0.026, 0.023),
    (0.032, 0.020, 0.019),
))

DOF_NAMES = ("flex", "abd", "pip", "dip")
ANGLE_CHANNELS = tuple(f"{f}_{d}" for f in FINGER_NAMES for d in DOF_NAMES)
GLOBAL_CHANNELS = ("rx", "ry", "rz", "tx", "ty", "tz")

_AZIMUTH = np.deg2rad(FINGER_AZIMUTH_DEG)
# unit in-plane direction each finger extends along at rest, (5, 3)
REST_DIRECTIONS = np.stack([np.sin(_AZIMUTH), np.cos(_AZIMUTH), np.zeros(5)], axis=1)


def _rest_positions() -> np.ndarray:
    pos = np.zeros((JOINT_COUNT, 3))
    pos[WRIST] = WRIST_POSITION
    pos[list(MCPS)] = PALM_ARC_RADIUS * REST_DIRECTIONS
    # center the seven global-status points at the origin, then grow the
    # finger chains from the centered MCPs (the same order of operations as
    # forward kinematics, so FK at zero angles is bit-exact)
    pos -= pos[list(GLOBAL_POINTS)].mean(axis=0)
    mcp, pip, dip, tip = np.array(FINGERS).T
    pos[pip] = pos[mcp] + BONE_LENGTHS[:, 0:1] * REST_DIRECTIONS
    pos[dip] = pos[pip] + BONE_LENGTHS[:, 1:2] * REST_DIRECTIONS
    pos[tip] = pos[dip] + BONE_LENGTHS[:, 2:3] * REST_DIRECTIONS
    return pos


REST_POSITIONS = _rest_positions()     # (22, 3)
# the canonical wrist/palm/MCP point set, centroid at the origin, (7, 3)
REFERENCE_PALM = REST_POSITIONS[list(GLOBAL_POINTS)]
for _constant in (BONE_LENGTHS, REST_DIRECTIONS, REST_POSITIONS, REFERENCE_PALM):
    _constant.flags.writeable = False


def hand_pose(frames) -> tuple[np.ndarray, np.ndarray]:
    """The hand's rigid pose: the Kabsch (R, t) that carries the reference
    palm onto the wrist, palm and MCP joints of a frame (22, 3), giving
    R (3, 3) and t (3,), or of each frame of a stack (T, 22, 3), giving
    R (T, 3, 3) and t (T, 3). Both motion streams are built from it."""
    points = np.asarray(frames, dtype=np.float64)[..., list(GLOBAL_POINTS), :]
    return kabsch_align(points, REFERENCE_PALM)


def forward_kinematics(global_pose, angles) -> np.ndarray:
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
    u1 = rotate_about_axis(REST_DIRECTIONS, PALM_NORMAL, abd)
    lateral = np.cross(PALM_NORMAL, u1)
    proximal = rotate_about_axis(u1, lateral, flex)
    middle = rotate_about_axis(proximal, lateral, pip)
    distal = rotate_about_axis(middle, lateral, dip)

    mcp, pip_joint, dip_joint, tip = np.array(FINGERS).T
    lengths = BONE_LENGTHS[..., None]
    local = np.broadcast_to(REST_POSITIONS, th.shape[:-1] + REST_POSITIONS.shape).copy()
    local[..., pip_joint, :] = local[..., mcp, :] + lengths[:, 0] * proximal
    local[..., dip_joint, :] = local[..., pip_joint, :] + lengths[:, 1] * middle
    local[..., tip, :] = local[..., dip_joint, :] + lengths[:, 2] * distal
    r = euler_to_matrix(pose[..., 0], pose[..., 1], pose[..., 2])
    return local @ r.mT + pose[..., None, 3:6]
