"""Hand skeleton data types, validation and skeleton-branch preprocessing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GestrecError


class SkeletonError(GestrecError):
    """Base class for skeleton data errors."""


class WrongJointCount(SkeletonError):
    def __init__(self, frame: int, found: int, expected: int):
        self.frame = frame
        self.found = found
        self.expected = expected
        super().__init__(
            f"frame {frame}: expected {expected} values/joints, found {found}"
        )


class NonFiniteCoordinate(SkeletonError):
    def __init__(self, frame: int, joint: int):
        self.frame = frame
        self.joint = joint
        super().__init__(f"non-finite coordinate at frame {frame}, joint {joint}")


class EmptySequence(SkeletonError):
    pass


class DegeneratePalm(SkeletonError):
    pass


class ZeroAmplitude(SkeletonError):
    pass


FINGER_NAMES = ("thumb", "index", "middle", "ring", "pinky")


@dataclass(frozen=True)
class JointLayout:
    """Joint indexing convention for a hand skeleton.

    Each finger is a quadruple (base/MCP, PIP, DIP, tip). The default matches
    the DHG-14/28 skeleton: wrist 0, palm 1, then four joints per finger in
    thumb..pinky order.
    """

    joint_count: int = 22
    wrist_index: int = 0
    palm_index: int = 1
    fingers: tuple[tuple[int, int, int, int], ...] = (
        (2, 3, 4, 5),
        (6, 7, 8, 9),
        (10, 11, 12, 13),
        (14, 15, 16, 17),
        (18, 19, 20, 21),
    )

    def __post_init__(self):
        indices = [self.wrist_index, self.palm_index]
        for quad in self.fingers:
            indices.extend(quad)
        if len(set(indices)) != len(indices):
            raise ValueError("joint indices must be distinct")
        if max(indices) >= self.joint_count or min(indices) < 0:
            raise ValueError("joint index out of range")
        if self.joint_count == 22 and len(indices) != 22:
            raise ValueError("22-joint layout must account for all joints")

    @property
    def mcp_indices(self) -> tuple[int, ...]:
        return tuple(quad[0] for quad in self.fingers)

    @property
    def global_indices(self) -> tuple[int, ...]:
        """Wrist, palm and the five MCPs: the points carrying global hand pose."""
        return (self.wrist_index, self.palm_index) + self.mcp_indices


DEFAULT_LAYOUT = JointLayout()


@dataclass
class SkeletonSequence:
    """A gesture clip: positions (T, J, 3) in meters plus dataset labels."""

    positions: np.ndarray
    gesture: int = 0
    finger: int = 0
    subject: int = 0
    trial: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)

    @property
    def num_frames(self) -> int:
        return self.positions.shape[0]


def validate_sequence(seq: SkeletonSequence,
                      layout: JointLayout = DEFAULT_LAYOUT) -> SkeletonSequence:
    """Check frame and joint counts and finiteness; return the sequence unchanged."""
    pos = seq.positions
    if pos.ndim != 3 or pos.shape[2] != 3:
        raise WrongJointCount(0, pos.shape[1] if pos.ndim >= 2 else 0,
                              layout.joint_count)
    if pos.shape[1] != layout.joint_count:
        raise WrongJointCount(0, pos.shape[1], layout.joint_count)
    if pos.shape[0] == 0:
        raise EmptySequence("sequence has no frames")
    finite = np.isfinite(pos).all(axis=2)
    if not finite.all():
        frame, joint = np.argwhere(~finite)[0]
        raise NonFiniteCoordinate(int(frame), int(joint))
    return seq


def palm_radius(frame: np.ndarray, layout: JointLayout = DEFAULT_LAYOUT) -> float:
    """Mean distance from the palm joint to the five MCP joints, in meters."""
    frame = np.asarray(frame, dtype=np.float64)
    palm = frame[layout.palm_index]
    mcps = frame[list(layout.mcp_indices)]
    radius = float(np.mean(np.linalg.norm(mcps - palm, axis=1)))
    if not radius > 0.0:
        raise DegeneratePalm("all MCP joints coincide with the palm joint")
    return radius


def normalize_skeleton_branch(seq: SkeletonSequence,
                              layout: JointLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Preprocess a sequence for the raw-skeleton network branch.

    Subtracts the first-frame palm position from every joint, scales so the
    largest joint norm over the whole sequence is exactly 1, and flattens each
    frame to 3J values (x, y, z per joint).
    """
    pos = seq.positions
    origin = pos[0, layout.palm_index]
    shifted = pos - origin
    amplitude = float(np.max(np.linalg.norm(shifted, axis=2)))
    if amplitude == 0.0:
        raise ZeroAmplitude("every joint coincides with the first-frame palm")
    scaled = shifted / amplitude
    return scaled.reshape(pos.shape[0], -1)

