import numpy as np
import pytest

from gestrec.finger_motion import (
    ZeroLengthBone,
    _to_local,
    finger_features,
    inverse_kinematics,
)
from gestrec.hand_model import REST_POSITIONS, forward_kinematics, hand_pose
from gestrec.skeleton import FINGERS, SkeletonSequence

from conftest import random_rotation


def fk_frame(pose=None, angles=None):
    pose = np.zeros(6) if pose is None else np.asarray(pose)
    angles = np.zeros(20) if angles is None else np.asarray(angles)
    return forward_kinematics(pose, angles)


def local_frame(frame):
    """The joints of `frame` with its rigid pose (`hand_pose`) undone."""
    return _to_local(frame, *hand_pose(frame))


def test_local_frame_identity_on_canonical_pose():
    rest = REST_POSITIONS
    rot, trans = hand_pose(rest)
    local = _to_local(rest, rot, trans)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(trans, 0.0, atol=1e-12)
    np.testing.assert_allclose(local, rest, atol=1e-12)


def test_local_frame_undoes_rigid_motion():
    rng = np.random.default_rng(30)
    rest = REST_POSITIONS
    for _ in range(20):
        r = random_rotation(rng)
        t = rng.uniform(-1, 1, 3)
        local = local_frame(rest @ r.T + t)
        np.testing.assert_allclose(local, rest, atol=1e-9)


def test_local_frame_invariance_between_rigid_copies():
    rng = np.random.default_rng(31)
    frame = fk_frame(angles=rng.uniform(-1.0, 1.0, 20))
    moved = frame @ random_rotation(rng).T + rng.uniform(-1, 1, 3)
    np.testing.assert_allclose(local_frame(frame), local_frame(moved), atol=1e-9)


def test_ik_zero_at_rest_pose():
    assert np.max(np.abs(inverse_kinematics(fk_frame()))) < 1e-9


def test_ik_recovers_single_pip_flexion():
    angles = np.zeros(20)
    angles[4 + 2] = np.pi / 2          # index finger PIP slot
    recovered = inverse_kinematics(fk_frame(angles=angles))
    assert recovered[6] == pytest.approx(np.pi / 2, abs=1e-9)
    untouched = np.delete(recovered, 6)
    assert np.max(np.abs(untouched)) < 1e-9


def test_ik_fk_roundtrip_in_joint_box():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(1000):
        angles = rng.uniform(-1.2, 1.2, 20)
        pose = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 3)])
        recovered = inverse_kinematics(fk_frame(pose, angles))
        worst = max(worst, float(np.max(np.abs(recovered - angles))))
    assert worst < 1e-6


def test_angles_invariant_under_rigid_motion():
    rng = np.random.default_rng(33)
    for _ in range(50):
        angles = rng.uniform(-1.2, 1.2, 20)
        frame = fk_frame(angles=angles)
        moved = frame @ random_rotation(rng).T + rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(inverse_kinematics(moved),
                                   inverse_kinematics(frame), atol=1e-6)


def test_zero_length_bone():
    frame = fk_frame()
    quad = FINGERS[1]
    frame[quad[1]] = frame[quad[0]]    # index PIP collapses onto the MCP
    with pytest.raises(ZeroLengthBone) as err:
        inverse_kinematics(frame)
    assert err.value.finger == "index"
    assert err.value.segment == "proximal"


def test_ik_stack_matches_per_frame_calls():
    rng = np.random.default_rng(37)
    angles = rng.uniform(-1.2, 1.2, (20, 20))
    angles[4, 4] = np.pi / 2    # index finger along the palm normal: abduction undefined
    frames = np.stack([fk_frame(np.concatenate([rng.uniform(-1, 1, 3),
                                                rng.uniform(-0.5, 0.5, 3)]), a)
                       for a in angles])
    stacked = inverse_kinematics(frames)
    assert stacked.shape == (20, 20)
    for i, frame in enumerate(frames):
        np.testing.assert_allclose(stacked[i], inverse_kinematics(frame), rtol=0, atol=1e-12)
    assert stacked[4, 5] == 0.0


def test_ik_stack_names_zero_length_bone_in_last_frame():
    frames = np.stack([fk_frame()] * 4)
    quad = FINGERS[4]
    frames[3, quad[3]] = frames[3, quad[2]]    # pinky tip collapses onto the DIP
    with pytest.raises(ZeroLengthBone, match="^frame 3: zero-length distal bone on pinky$") as err:
        inverse_kinematics(frames)
    assert (err.value.frame, err.value.finger, err.value.segment) == (3, "pinky", "distal")

def fk_sequence(angle_track, **meta):
    frames = len(angle_track)
    pos = np.stack([forward_kinematics(np.zeros(6), angle_track[t])
                    for t in range(frames)])
    return SkeletonSequence(pos, **meta)


def sequence_features(seq):
    """`finger_features` from the sequence's own pose."""
    return finger_features(seq.positions, hand_pose(seq.positions))


def test_static_sequence_zero_offset_dynamic():
    angles = np.tile(np.random.default_rng(34).uniform(-0.8, 0.8, 20), (13, 1))
    feats = sequence_features(fk_sequence(angles))
    assert feats.shape == (13, 100)
    np.testing.assert_allclose(feats[:, 20:], 0.0, atol=1e-9)


def test_first_frame_offset_zero():
    rng = np.random.default_rng(35)
    angles = rng.uniform(-0.9, 0.9, (12, 20))
    feats = sequence_features(fk_sequence(angles))
    np.testing.assert_allclose(feats[0, 20:40], 0.0, atol=1e-12)


def test_curl_lag10_dynamic_pose():
    # all flexion DoFs advance 0.02 rad/frame: lag-10 differences are 0.2
    frames = 25
    angles = np.zeros((frames, 20))
    flex_slots = [4 * f + d for f in range(5) for d in (0, 2, 3)]
    for t in range(frames):
        angles[t, flex_slots] = 0.02 * t
    feats = sequence_features(fk_sequence(angles))
    lag10 = feats[:, 80:]
    np.testing.assert_allclose(lag10[10:, flex_slots], 0.2, atol=1e-9)
    abd_slots = [4 * f + 1 for f in range(5)]
    np.testing.assert_allclose(lag10[:, abd_slots], 0.0, atol=1e-9)


def test_feature_error_reports_frame():
    angles = np.zeros((6, 20))
    seq = fk_sequence(angles)
    quad = FINGERS[0]
    seq.positions[3, quad[2]] = seq.positions[3, quad[1]]
    with pytest.raises(ZeroLengthBone, match="frame 3"):
        sequence_features(seq)
