import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gestrec.geometry import (
    DegenerateInput,
    NotARotation,
    cartesian_to_spherical,
    cross,
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


def test_euler_to_matrix_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(50):
        angles = rng.uniform(-np.pi, np.pi, 3)
        ours = euler_to_matrix(*angles)
        oracle = Rotation.from_euler("XYZ", angles).as_matrix()
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_euler_roundtrip_away_from_gimbal():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        angles = rng.uniform(-np.pi + 1e-6, np.pi, 3)
        angles[1] = rng.uniform(-(np.pi / 2 - 0.1), np.pi / 2 - 0.1)
        r = euler_to_matrix(*angles)
        recovered = rotation_to_euler(r)
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


def _two_svd_refusal(points, reference):
    """The rank rule `kabsch_align` used before it read H's singular values:
    one SVD of the centered reference, then one of each centered frame, each
    refusing s1 <= 1e-12 * max(s0, 1). Returns "reference", the index of the
    first refused frame (0 for a lone frame) or None."""
    q = reference - reference.mean(axis=0)
    p = points - points.mean(axis=-2)[..., None, :]
    for centered in (q, p):
        s = np.linalg.svd(centered, compute_uv=False)
        flat = s[..., 1] <= 1e-12 * np.maximum(s[..., 0], 1.0)
        if flat.any():
            return "reference" if centered is q else int(np.argmax(flat))
    return None


def _rank_two_points_with_rank_one_h():
    """p = (q_x, 0, w) against the reference palm q, which lies in the z = 0
    plane, with w centered and orthogonal to q_x and q_y: p has rank 2 but
    H = q^T p has rank 1, so the best-fitting rotations form a family about
    x, and p with w negated, which has the same H, fits each one as well."""
    q = REFERENCE_PALM - REFERENCE_PALM.mean(axis=0)
    assert not q[:, 2].any()
    basis = np.column_stack([np.ones(len(q)), q[:, 0], q[:, 1]])
    w = np.random.default_rng(17).normal(0.0, 0.03, len(q))
    w -= basis @ np.linalg.lstsq(basis, w, rcond=None)[0]
    return np.column_stack([q[:, 0], np.zeros(len(q)), w])


def test_kabsch_refuses_rank_two_points_whose_rotation_is_not_unique():
    ref = REFERENCE_PALM
    frame = _rank_two_points_with_rank_one_h() + [0.1, -0.2, 0.3]
    assert np.linalg.matrix_rank(frame - frame.mean(axis=0), tol=1e-12) == 2
    assert _two_svd_refusal(frame, ref) is None     # the old rule let it through
    with pytest.raises(DegenerateInput, match="^the points do not fix a unique rotation$"):
        kabsch_align(frame, ref)
    for k in range(3):
        stack = np.stack([ref, ref, ref])
        stack[k] = frame
        with pytest.raises(DegenerateInput, match=f"^frame {k}: "):
            kabsch_align(stack, ref)


def _planted_flat(rng, scale, n=7):
    """n points on a random line, or all on one point, at `scale` around a
    random offset."""
    offset = rng.uniform(-1.0, 1.0, 3) * scale
    if rng.random() < 0.5:
        return offset + np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=3)) * scale
    return np.repeat(offset[None], n, axis=0)


def test_h_rank_rule_refuses_every_frame_the_two_svd_rule_refused():
    # seeded stacks with collinear or coincident frames, and flat references,
    # planted at scales 1e-9 ... 1e3; the other frames and references are
    # random at scales where the rotation is well determined
    rng = np.random.default_rng(18)
    flat_scales = 10.0 ** np.arange(-9, 4)
    outcomes = {"accepted": 0, "reference": 0, "frame": 0}
    for _ in range(400):
        kind = rng.integers(3)
        if kind == 0:
            ref = REFERENCE_PALM
        elif kind == 1:
            ref = rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-2, 2)
        else:
            ref = _planted_flat(rng, rng.choice(flat_scales))
        frames = rng.integers(1, 9)
        points = rng.normal(size=(frames, 7, 3)) * 10.0 ** rng.uniform(-3, 3, (frames, 1, 1))
        for k in np.flatnonzero(rng.random(frames) < 0.3):
            points[k] = _planted_flat(rng, rng.choice(flat_scales))
        if rng.random() < 0.25:
            points = points[0]
        want = _two_svd_refusal(points, ref)
        if want is None:
            kabsch_align(points, ref)
            outcomes["accepted"] += 1
            continue
        outcomes["reference" if want == "reference" else "frame"] += 1
        first = 0 if want == "reference" else want
        prefix = f"frame {first}: " if points.ndim == 3 else ""
        with pytest.raises(DegenerateInput, match=f"^{prefix}the points do not fix"):
            kabsch_align(points, ref)
    assert min(outcomes.values()) > 50, outcomes


def test_euler_stack_matches_per_frame_calls():
    rng = np.random.default_rng(16)
    half_turn_x = np.diag([1.0, -1.0, -1.0])
    half_turn_x[2, 1] = -0.0    # atan2 gives r_x = -pi here
    mats = np.stack([random_rotation(rng) for _ in range(20)]
                    + [euler_to_matrix(0.3, np.pi / 2, 0.0),    # gimbal lock
                       euler_to_matrix(0.0, -np.pi / 2, -0.4),
                       half_turn_x])
    stacked = np.stack(rotation_to_euler(mats), axis=1)
    assert stacked.shape == (23, 3)
    for i, r in enumerate(mats):
        single = rotation_to_euler(r)
        assert all(np.ndim(angle) == 0 for angle in single)
        np.testing.assert_allclose(stacked[i], single, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(stacked[20:22, 2], 0.0)
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


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3,), (3,)), ((40, 3), (40, 3)), ((7, 5, 3), (7, 5, 3)),
    # the broadcasts forward and inverse kinematics make
    ((3,), (7, 5, 3)), ((5, 3), (7, 5, 3)), ((7, 5, 3), (5, 3))])
def test_cross_is_bytewise_np_cross(shape_a, shape_b):
    rng = np.random.default_rng(29)
    a, b = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            for shape in (shape_a, shape_b))
    expected = np.cross(a, b)
    got = cross(a, b)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_cross_keeps_numpys_signed_zeros():
    # every vector with components from {0, -0, 1, -1}, crossed with every other
    parts = (0.0, -0.0, 1.0, -1.0)
    vectors = np.array([(x, y, z) for x in parts for y in parts for z in parts])
    a, b = vectors[:, None], vectors[None]
    expected = np.cross(a, b)
    assert np.signbit(expected[expected == 0.0]).any()
    assert cross(a, b).tobytes() == expected.tobytes()
