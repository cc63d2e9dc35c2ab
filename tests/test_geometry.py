import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gestrec.geometry import (
    DegenerateInput,
    NotARotation,
    cartesian_to_spherical,
    euler_to_matrix,
    kabsch_align,
    rotation_to_euler,
    with_differences,
    wrap_angle,
)
from gestrec.hand_model import REFERENCE_PALM

from conftest import random_rotation


def test_kabsch_identity():
    ref = REFERENCE_PALM
    r, t = kabsch_align(ref, ref)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(t, 0.0, atol=1e-12)


def test_kabsch_recovers_quarter_turn_and_shift():
    ref = REFERENCE_PALM
    planted = np.array([[0.0, -1.0, 0.0],
                        [1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0]])  # 90 degrees about z, written out
    shift = np.array([1.0, 2.0, 3.0])
    r, t = kabsch_align(ref @ planted.T + shift, ref)
    assert np.linalg.norm(r - planted) < 1e-9
    np.testing.assert_allclose(t, shift, atol=1e-9)


def test_kabsch_planted_transforms_exact():
    ref = REFERENCE_PALM
    rng = np.random.default_rng(10)
    for _ in range(200):
        planted = random_rotation(rng)
        shift = rng.uniform(-1, 1, 3)
        r, t = kabsch_align(ref @ planted.T + shift, ref)
        assert np.abs(r - planted).max() < 1e-9
        assert np.abs(t - shift).max() < 1e-9
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_kabsch_noise_monte_carlo():
    # 100 noisy trials: recovered rotation within 1e-2 rad geodesic distance
    ref = REFERENCE_PALM
    rng = np.random.default_rng(11)
    for _ in range(100):
        planted = random_rotation(rng)
        pts = ref @ planted.T + rng.uniform(-0.5, 0.5, 3)
        pts = pts + rng.normal(0, 1e-4, pts.shape)
        r, _ = kabsch_align(pts, ref)
        cosang = np.clip((np.trace(r.T @ planted) - 1) / 2, -1, 1)
        assert np.arccos(cosang) < 1e-2


def test_kabsch_degenerate_collinear():
    line = np.outer(np.linspace(0, 1, 7), [1.0, 2.0, 0.5])
    with pytest.raises(DegenerateInput):
        kabsch_align(line, REFERENCE_PALM)
    with pytest.raises(DegenerateInput):
        kabsch_align(REFERENCE_PALM, line)


def test_euler_identity():
    assert rotation_to_euler(np.eye(3)) == (0.0, 0.0, 0.0)


def test_euler_quarter_turn_about_z():
    r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rx, ry, rz = rotation_to_euler(r)
    assert (rx, ry) == (0.0, 0.0)
    assert rz == pytest.approx(np.pi / 2, abs=1e-12)


@pytest.mark.parametrize("convention,scipy_seq", [("xyz", "XYZ"), ("zyx", "ZYX")])
def test_euler_to_matrix_matches_scipy(convention, scipy_seq):
    # ours always takes (rx, ry, rz); scipy wants angles in application order
    rng = np.random.default_rng(12)
    for _ in range(50):
        angles = rng.uniform(-np.pi, np.pi, 3)
        ours = euler_to_matrix(*angles, convention=convention)
        scipy_angles = angles if scipy_seq == "XYZ" else angles[::-1]
        oracle = Rotation.from_euler(scipy_seq, scipy_angles).as_matrix()
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


@pytest.mark.parametrize("convention", ["xyz", "zyx"])
def test_euler_roundtrip_away_from_gimbal(convention):
    rng = np.random.default_rng(13)
    for _ in range(1000):
        angles = rng.uniform(-np.pi + 1e-6, np.pi, 3)
        angles[1] = rng.uniform(-(np.pi / 2 - 0.1), np.pi / 2 - 0.1)
        r = euler_to_matrix(*angles, convention=convention)
        recovered = rotation_to_euler(r, convention=convention)
        np.testing.assert_allclose(recovered, angles, atol=1e-9)


def test_euler_gimbal_lock_branch():
    r = euler_to_matrix(0.3, np.pi / 2, 0.0)
    rx, ry, rz = rotation_to_euler(r)
    assert rz == 0.0
    assert ry == pytest.approx(np.pi / 2, abs=1e-9)
    # the returned angles must still reproduce the matrix
    np.testing.assert_allclose(euler_to_matrix(rx, ry, rz), r, atol=1e-9)


def test_rotation_to_euler_rejects_non_rotations():
    with pytest.raises(NotARotation):
        rotation_to_euler(np.eye(3) * 1.001)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotARotation):
        rotation_to_euler(reflection)


def test_spherical_degenerate_and_axes():
    assert cartesian_to_spherical([0, 0, 0]) == (0.0, 0.0, 0.0)
    assert cartesian_to_spherical([0, 0, 1]) == (1.0, 0.0, 0.0)
    rho, theta, phi = cartesian_to_spherical([1, 1, 0])
    assert rho == pytest.approx(np.sqrt(2), abs=1e-12)     # direct trigonometry
    assert theta == pytest.approx(np.pi / 2, abs=1e-12)
    assert phi == pytest.approx(np.pi / 4, abs=1e-12)
    # atan2(-0.0, -1) is -pi, folded onto +pi
    assert cartesian_to_spherical([-1.0, -0.0, 0.5])[2] == np.pi


def test_spherical_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(200):
        v = rng.normal(size=3)
        rho, theta, phi = cartesian_to_spherical(v)
        rebuilt = rho * np.array([np.sin(theta) * np.cos(phi),
                                  np.sin(theta) * np.sin(phi),
                                  np.cos(theta)])
        np.testing.assert_allclose(rebuilt, v, atol=1e-12)
        assert 0 <= theta <= np.pi
        assert -np.pi < phi <= np.pi


def test_wrap_angle_range_and_values():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(1.5 * np.pi) == pytest.approx(-0.5 * np.pi)
    xs = np.linspace(-10, 10, 1001)
    wrapped = wrap_angle(xs)
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
    np.testing.assert_allclose(np.sin(wrapped), np.sin(xs), atol=1e-12)
    np.testing.assert_allclose(np.cos(wrapped), np.cos(xs), atol=1e-12)


def test_with_differences_matches_per_lag_loop():
    pose = np.random.default_rng(7).uniform(-3.0, 3.0, (12, 4))
    out = with_differences(pose, (1, 5), first_angle=1)
    assert out.shape == (12, 16)
    np.testing.assert_array_equal(out[:, :4], pose)
    for block, back in enumerate((np.zeros(12, int), np.maximum(np.arange(12) - 1, 0),
                                  np.maximum(np.arange(12) - 5, 0)), start=1):
        expected = pose - pose[back]
        expected[:, 1:] = wrap_angle(expected[:, 1:])
        np.testing.assert_array_equal(out[:, 4 * block:4 * block + 4], expected)
    assert np.abs(out[:, 4]).max() > np.pi  # the plain column is not wrapped


def test_kabsch_stack_matches_per_frame_calls():
    ref = REFERENCE_PALM
    rng = np.random.default_rng(15)
    stack = np.stack([ref @ random_rotation(rng).T + rng.uniform(-1, 1, 3)
                      + rng.normal(0, 1e-3, ref.shape) for _ in range(20)])
    r, t = kabsch_align(stack, ref)
    assert r.shape == (20, 3, 3) and t.shape == (20, 3)
    for i, frame in enumerate(stack):
        r1, t1 = kabsch_align(frame, ref)
        np.testing.assert_allclose(r[i], r1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t[i], t1, rtol=0, atol=1e-12)


def test_kabsch_stack_names_degenerate_last_frame():
    ref = REFERENCE_PALM
    line = np.outer(np.linspace(0, 1, 7), [1.0, 2.0, 0.5])
    with pytest.raises(DegenerateInput, match="^frame 2: "):
        kabsch_align(np.stack([ref, ref, line]), ref)


@pytest.mark.parametrize("convention", ["xyz", "zyx"])
def test_euler_stack_matches_per_frame_calls(convention):
    rng = np.random.default_rng(16)
    half_turn_x = np.diag([1.0, -1.0, -1.0])
    half_turn_x[2, 1] = -0.0    # atan2 gives r_x = -pi here in both conventions
    mats = np.stack([random_rotation(rng) for _ in range(20)]
                    + [euler_to_matrix(0.3, np.pi / 2, 0.0, convention),    # gimbal lock
                       euler_to_matrix(0.0, -np.pi / 2, -0.4, convention),
                       half_turn_x])
    stacked = np.stack(rotation_to_euler(mats, convention), axis=1)
    assert stacked.shape == (23, 3)
    for i, r in enumerate(mats):
        single = rotation_to_euler(r, convention)
        assert all(np.ndim(angle) == 0 for angle in single)
        np.testing.assert_allclose(stacked[i], single, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(stacked[20:22, 2 if convention == "xyz" else 0], 0.0)
    assert stacked[22, 0] == np.pi


def test_spherical_stack_matches_per_frame_calls():
    v = np.random.default_rng(17).normal(size=(20, 3))
    v[5] = 0.0
    v[6] = (-1.0, -0.0, 0.5)
    stacked = np.stack(cartesian_to_spherical(v), axis=1)
    assert stacked[6, 2] == np.pi
    for i, row in enumerate(v):
        np.testing.assert_allclose(stacked[i], cartesian_to_spherical(row), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(stacked[5], 0.0)
