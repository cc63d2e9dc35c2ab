import numpy as np
import pytest

from gestrec.geometry import euler_to_matrix, rotate_about_axis
from gestrec.hand_model import REST_POSITIONS, forward_kinematics
from gestrec.synth import ANGLE_LIMIT


def test_fk_stack_matches_per_frame_calls():
    rng = np.random.default_rng(90)
    poses = np.concatenate([rng.uniform(-np.pi, np.pi, (50, 3)),
                            rng.normal(0.0, 0.3, (50, 3))], axis=1)
    angles = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT, (50, 20))
    stacked = forward_kinematics(poses, angles)
    assert stacked.shape == (50, 22, 3)
    for t in range(50):
        np.testing.assert_allclose(
            stacked[t], forward_kinematics(poses[t], angles[t]),
            rtol=0, atol=1e-12)


def test_fk_stack_zero_angles_at_identity_is_rest_pose():
    stacked = forward_kinematics(np.zeros((4, 6)), np.zeros((4, 20)))
    for frame in stacked:
        np.testing.assert_array_equal(frame, REST_POSITIONS)


@pytest.mark.parametrize("convention", ["xyz", "zyx"])
def test_euler_to_matrix_stack_matches_scalar_calls(convention):
    angles = np.random.default_rng(91).uniform(-np.pi, np.pi, (30, 3))
    stacked = euler_to_matrix(*angles.T, convention=convention)
    assert stacked.shape == (30, 3, 3)
    for row, r in zip(angles, stacked):
        np.testing.assert_array_equal(r, euler_to_matrix(*row, convention=convention))


def test_rotate_about_axis_with_angle_array():
    axis = np.array([0.0, 0.6, 0.8])
    v = np.array([1.0, 0.0, 0.0])
    angles = np.linspace(-np.pi, np.pi, 7)
    stacked = rotate_about_axis(v, axis, angles)
    assert stacked.shape == (7, 3)
    for angle, row in zip(angles, stacked):
        np.testing.assert_array_equal(row, rotate_about_axis(v, axis, angle))


def test_rotate_about_axis_with_vector_stack():
    rng = np.random.default_rng(92)
    v = rng.normal(size=(5, 3))
    axis = np.array([0.0, 0.0, 1.0])
    stacked = rotate_about_axis(v, axis, np.pi / 2)
    assert stacked.shape == (5, 3)
    # a quarter turn about +z maps (x, y, z) to (-y, x, z)
    np.testing.assert_allclose(stacked, np.stack([-v[:, 1], v[:, 0], v[:, 2]], axis=1),
                               rtol=0, atol=1e-15)
    for row, out in zip(v, stacked):
        np.testing.assert_array_equal(out, rotate_about_axis(row, axis, np.pi / 2))
