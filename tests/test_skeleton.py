import numpy as np
import pytest

from gestrec.evaluation import OutOfRange, class_of, collapse_28_to_14
from gestrec.features import extract_features
from gestrec.skeleton import (
    FINGERS,
    GLOBAL_POINTS,
    JOINT_COUNT,
    MAX_COORDINATE,
    MCPS,
    PALM,
    WRIST,
    DegeneratePalm,
    EmptySequence,
    NonFiniteCoordinate,
    SkeletonError,
    SkeletonSequence,
    WrongJointCount,
    ZeroAmplitude,
    normalize_skeleton_branch,
    palm_radius,
    validate_sequence,
)

from conftest import random_rotation


def random_sequence(rng, frames=12, joints=22):
    return SkeletonSequence(rng.normal(0, 0.1, (frames, joints, 3)),
                            gesture=1, finger=1, subject=1, trial=1)


def test_layout_defaults():
    assert JOINT_COUNT == 22
    assert GLOBAL_POINTS == (0, 1, 2, 6, 10, 14, 18)
    assert len(set(GLOBAL_POINTS)) == 7
    # every joint appears exactly once: wrist, palm, then the finger quadruples
    assert sorted((WRIST, PALM) + sum(FINGERS, ())) == list(range(JOINT_COUNT))


def test_validate_identity():
    seq = random_sequence(np.random.default_rng(0))
    assert validate_sequence(seq) is seq


def test_validate_flags_nan_position():
    seq = random_sequence(np.random.default_rng(1))
    seq.positions[3, 7, 1] = np.nan
    with pytest.raises(NonFiniteCoordinate) as err:
        validate_sequence(seq)
    assert (err.value.frame, err.value.joint) == (3, 7)


def test_validate_bounds_every_coordinate():
    seq = random_sequence(np.random.default_rng(2))
    seq.positions[0, 0] = (MAX_COORDINATE, -MAX_COORDINATE, 0.0)
    assert validate_sequence(seq) is seq
    seq.positions[2, 5, 2] = -1e160  # its squares would overflow float64
    with pytest.raises(SkeletonError, match=r"^\|coordinate\| > 1e\+100 at frame 2, joint 5$"):
        validate_sequence(seq)
    seq.positions[1, 9, 0] = np.inf  # an earlier frame is reported first
    with pytest.raises(NonFiniteCoordinate) as err:
        validate_sequence(seq)
    assert (err.value.frame, err.value.joint) == (1, 9)


def test_validate_wrong_joint_count():
    seq = SkeletonSequence(np.zeros((4, 21, 3)))
    with pytest.raises(WrongJointCount) as err:
        validate_sequence(seq)
    assert err.value.found == 21


def test_validate_rejects_zero_frames():
    seq = SkeletonSequence(np.zeros((0, 22, 3)))
    with pytest.raises(EmptySequence):
        validate_sequence(seq)
    with pytest.raises(EmptySequence):
        extract_features(seq)


def test_palm_radius_constant_distance():
    rng = np.random.default_rng(3)
    frame = rng.normal(0, 0.05, (22, 3))
    palm = frame[1]
    for mcp in MCPS:
        direction = rng.normal(size=3)
        frame[mcp] = palm + 0.04 * direction / np.linalg.norm(direction)
    assert palm_radius(frame) == pytest.approx(0.04, abs=1e-12)


def test_palm_radius_is_arithmetic_mean():
    distances = [0.03, 0.04, 0.05, 0.04, 0.04]
    frame = np.zeros((22, 3))
    for d, mcp in zip(distances, MCPS):
        frame[mcp] = (d, 0.0, 0.0)
    expected = float(np.mean(distances))  # oracle: plain arithmetic mean
    assert palm_radius(frame) == pytest.approx(expected, abs=1e-15)
    assert palm_radius(frame) == pytest.approx(0.04)


def test_palm_radius_degenerate():
    frame = np.zeros((22, 3))
    with pytest.raises(DegeneratePalm):
        palm_radius(frame)


def test_palm_radius_rigid_invariance():
    rng = np.random.default_rng(4)
    frame = rng.normal(0, 0.05, (22, 3))
    r = random_rotation(rng)
    moved = frame @ r.T + rng.normal(size=3)
    assert palm_radius(moved) == pytest.approx(palm_radius(frame), abs=1e-12)


def test_normalize_scales_max_joint_to_unit():
    positions = np.zeros((3, 22, 3))
    positions[:, 5] = (0.0, 0.0, 0.2)   # farthest joint
    positions[:, 9] = (0.0, 0.1, 0.0)
    flat = normalize_skeleton_branch(SkeletonSequence(positions))
    np.testing.assert_allclose(flat[0, 15:18], [0.0, 0.0, 1.0], atol=1e-15)


def test_normalize_max_norm_is_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        flat = normalize_skeleton_branch(random_sequence(rng))
        norms = np.linalg.norm(flat.reshape(flat.shape[0], 22, 3), axis=2)
        assert abs(norms.max() - 1.0) < 1e-12


def test_normalize_translation_invariance():
    rng = np.random.default_rng(6)
    seq = random_sequence(rng)
    shifted = SkeletonSequence(seq.positions + rng.normal(size=3))
    np.testing.assert_allclose(normalize_skeleton_branch(shifted),
                               normalize_skeleton_branch(seq), atol=1e-9)


def test_normalize_zero_amplitude():
    positions = np.zeros((5, 22, 3))
    positions[:] = (0.3, 0.2, 0.1)      # every joint equals the palm position
    with pytest.raises(ZeroAmplitude):
        normalize_skeleton_branch(SkeletonSequence(positions))


# DHG labels a sequence by (gesture 1..14, finger config 1..2); the 28-class
# label is 2 * (gesture - 1) + finger, which class_of returns 0-based


def test_gesture_label_encoding():
    assert class_of(1, 1, 28) + 1 == 1
    assert class_of(1, 2, 28) + 1 == 2
    assert class_of(14, 2, 28) + 1 == 28


def test_gesture_label_bijection():
    seen = set()
    for g in range(1, 15):
        for f in (1, 2):
            label = class_of(g, f, 28) + 1
            assert (collapse_28_to_14(label), label - 2 * (g - 1)) == (g, f)
            seen.add(label)
    assert seen == set(range(1, 29))


def test_gesture_label_range_checks():
    with pytest.raises(OutOfRange):
        class_of(0, 1, 28)
    with pytest.raises(OutOfRange):
        class_of(1, 3, 28)
    with pytest.raises(OutOfRange):
        collapse_28_to_14(29)
