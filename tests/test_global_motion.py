import numpy as np
import pytest

from gestrec.geometry import DegenerateInput
from gestrec.global_motion import (
    InvalidConfig,
    dad_config_for_sequence,
    dad_thresholds,
    discretize_rho,
    frame_global_pose,
    global_features,
)
from gestrec.hand_model import forward_kinematics
from gestrec.skeleton import GLOBAL_POINTS, SkeletonSequence, palm_radius


def oracle_thresholds(bins, sigma, resolution=2 ** 20):
    """Independent route: cumulative trapezoid integration + interpolation."""
    xs = np.linspace(0.0, sigma, resolution + 1)
    ys = np.exp(-xs * xs / (2.0 * sigma * sigma))
    cumulative = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) * np.diff(xs) / 2.0)])
    targets = cumulative[-1] * np.arange(1, bins + 1) / bins
    return np.interp(targets, cumulative, xs)


def oracle_mass(a, b, sigma, resolution=200_000):
    xs = np.linspace(a, b, resolution + 1)
    ys = np.exp(-xs * xs / (2.0 * sigma * sigma))
    return float(np.trapezoid(ys, xs))


def fk_sequence(poses, angles=None, **meta):
    frames = len(poses)
    if angles is None:
        angles = np.zeros((frames, 20))
    pos = np.stack([forward_kinematics(poses[t], angles[t])
                    for t in range(frames)])
    return SkeletonSequence(pos, **meta)


def test_last_threshold_is_sigma_exactly():
    for bins, sigma in ((1, 2.0), (5, 1.0), (7, 0.063), (3, 12.5)):
        edges = dad_thresholds(bins, sigma)
        assert edges[-1] == sigma


def test_single_bin():
    np.testing.assert_array_equal(dad_thresholds(1, 2.0), [2.0])


def test_thresholds_match_integration_oracle():
    edges = dad_thresholds(5, 1.0)
    np.testing.assert_allclose(edges, oracle_thresholds(5, 1.0), atol=1e-6)
    # first edge value from solving the equal-mass equation numerically
    assert edges[0] == pytest.approx(0.1720, abs=5e-4)


def test_thresholds_equal_mass_property():
    for bins, sigma in ((5, 1.0), (4, 0.07), (6, 3.0)):
        edges = np.concatenate([[0.0], dad_thresholds(bins, sigma)])
        masses = [oracle_mass(edges[i], edges[i + 1], sigma) for i in range(bins)]
        spread = (max(masses) - min(masses)) / np.mean(masses)
        assert spread < 1e-6


def test_thresholds_strictly_increasing():
    rng = np.random.default_rng(20)
    for _ in range(10):
        bins = int(rng.integers(2, 9))
        sigma = float(rng.uniform(0.01, 5.0))
        edges = dad_thresholds(bins, sigma)
        assert np.all(np.diff(edges) > 0)


def test_thresholds_match_the_erfinv_closed_form():
    # the same closed form in its erfinv spelling; scipy is imported here
    # only, since the package itself does not depend on it
    from scipy.special import erf, erfinv
    for bins in range(1, 33):
        for sigma in (0.01, 0.8, 1.0, 2.5, 123.0):
            edges = dad_thresholds(bins, sigma)
            reference = sigma * np.sqrt(2.0) * erfinv(np.arange(1, bins + 1) / bins
                                                      * erf(np.sqrt(0.5)))
            np.testing.assert_allclose(edges, reference, rtol=1e-14, atol=0)
            assert np.all(np.diff(edges) > 0)
            assert edges[-1] == sigma


def test_invalid_config():
    with pytest.raises(InvalidConfig):
        dad_thresholds(0, 1.0)
    with pytest.raises(InvalidConfig):
        dad_thresholds(5, -1.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(InvalidConfig):
            dad_thresholds(5, sigma)


def test_discretize_examples():
    config = dad_thresholds(5, 1.0)
    assert discretize_rho(0.0, config) == 1
    assert discretize_rho(10.0, config) == 5
    # Gaussian mass up to 0.5 is ~2.8 bins' worth, so 0.5 falls in bin 3
    assert discretize_rho(0.5, config) == 3
    oracle = oracle_thresholds(5, 1.0)
    assert oracle[1] < 0.5 <= oracle[2]


def test_discretize_monotone():
    config = dad_thresholds(5, 0.08)
    rhos = np.sort(np.random.default_rng(21).uniform(0, 0.2, 200))
    bins = [discretize_rho(r, config) for r in rhos]
    assert all(b2 >= b1 for b1, b2 in zip(bins, bins[1:]))


def test_config_sigma_from_first_frame_palm():
    seq = fk_sequence(np.zeros((3, 6)))
    config = dad_config_for_sequence(seq, bins=5, sigma_scale=1.5)
    assert config[-1] == pytest.approx(1.5 * palm_radius(seq.positions[0]), rel=1e-12)


def test_static_sequence_has_zero_offset_and_dynamic():
    pose = np.array([0.2, -0.1, 0.4, 0.05, 0.02, 0.3])
    seq = fk_sequence(np.tile(pose, (14, 1)))
    feats = global_features(seq)
    assert feats.shape == (14, 30)
    np.testing.assert_allclose(feats[:, 6:], 0.0, atol=1e-9)


def test_first_frame_offset_is_zero():
    rng = np.random.default_rng(22)
    poses = rng.uniform(-0.3, 0.3, (12, 6))
    feats = global_features(fk_sequence(poses))
    np.testing.assert_allclose(feats[0, 6:12], 0.0, atol=1e-12)


def test_rotating_sequence_lag5_rz():
    # pose rotates 0.01 rad/frame about z: lag-5 difference of r_z is 0.05
    frames = 20
    poses = np.zeros((frames, 6))
    poses[:, 2] = 0.01 * np.arange(frames)
    feats = global_features(fk_sequence(poses))
    # layout: [phi(6), op(6), dp_lag1(6), dp_lag5(6), dp_lag10(6)]
    lag5_rz = feats[6:, 18 + 5]
    np.testing.assert_allclose(lag5_rz, 0.05, atol=1e-9)


def test_phi_depends_only_on_current_frame():
    rng = np.random.default_rng(23)
    poses = rng.uniform(-0.4, 0.4, (15, 6))
    feats_full = global_features(fk_sequence(poses))
    feats_tail = global_features(fk_sequence(poses[5:]))
    np.testing.assert_allclose(feats_tail[:, :6], feats_full[5:, :6], atol=1e-12)


def test_feature_length_follows_lags():
    seq = fk_sequence(np.zeros((12, 6)))
    assert global_features(seq, lags=(1, 2)).shape == (12, 24)
    assert global_features(seq).shape == (12, 30)


def test_frame_pose_recovers_planted_pose():
    pose = np.array([0.3, -0.5, 0.9, 0.12, -0.3, 0.25])
    frame = forward_kinematics(pose, np.zeros(20))
    recovered = frame_global_pose(frame)
    np.testing.assert_allclose(recovered.rotation, pose[:3], atol=1e-9)
    rho, theta, phi = recovered.translation_spherical
    assert rho == pytest.approx(np.linalg.norm(pose[3:]), abs=1e-9)
    rebuilt = rho * np.array([np.sin(theta) * np.cos(phi),
                              np.sin(theta) * np.sin(phi), np.cos(theta)])
    np.testing.assert_allclose(rebuilt, pose[3:], atol=1e-9)


def test_degenerate_frame_reports_index():
    seq = fk_sequence(np.zeros((4, 6)))
    seq.positions[2, list(GLOBAL_POINTS)] = np.outer(
        np.arange(7), [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateInput, match="frame 2"):
        global_features(seq)


def test_rho_bin_differenced_as_integer():
    # translation grows radially: rho_bin climbs, and offsets are plain diffs
    frames = 16
    poses = np.zeros((frames, 6))
    poses[:, 3] = np.linspace(0.0, 0.12, frames)
    seq = fk_sequence(poses)
    feats = global_features(seq)
    bins = feats[:, 0]
    assert set(np.unique(bins)) <= set(range(1, 6))
    np.testing.assert_allclose(feats[:, 6], bins - bins[0], atol=0)
