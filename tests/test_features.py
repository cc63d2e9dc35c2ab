import itertools
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gestrec import hand_model
from gestrec.config import PipelineConfig
from gestrec.features import (
    FEATURE_KINDS,
    FeatureError,
    extract_features,
    feature_filename,
    load_feature_dir,
    read_feature_file,
    write_feature_file,
)
from gestrec.finger_motion import finger_features
from gestrec.geometry import DegenerateInput
from gestrec.global_motion import dad_config_for_sequence, global_features
from gestrec.skeleton import DegeneratePalm, SkeletonSequence


def test_extract_default_dims(tiny_sequences):
    seq = tiny_sequences[0]
    streams = extract_features(seq)
    assert streams["global"].shape == (seq.num_frames, 30)
    assert streams["finger"].shape == (seq.num_frames, 100)
    assert streams["skeleton"].shape == (seq.num_frames, 66)


def test_extract_dims_follow_lag_config(tiny_sequences):
    config = PipelineConfig(lags=(1, 2))
    streams = extract_features(tiny_sequences[0], config)
    assert streams["global"].shape[1] == 12 + 6 * 2
    assert streams["finger"].shape[1] == 40 + 20 * 2


def test_extract_subset_of_kinds(tiny_sequences):
    streams = extract_features(tiny_sequences[0], kinds=("finger",))
    assert set(streams) == {"finger"}


def test_one_function_solves_the_rigid_pose():
    # besides its definition, kabsch_align is called only by hand_model.hand_pose
    sources = Path(hand_model.__file__).parent.glob("*.py")
    callers = sorted(p.name for p in sources if "kabsch_align(" in p.read_text())
    assert callers == ["geometry.py", "hand_model.py"]


@pytest.fixture
def kabsch_calls(monkeypatch):
    """Counts kabsch_align calls through `hand_pose`, the one caller."""
    calls = []
    original = hand_model.kabsch_align

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hand_model, "kabsch_align", counted)
    return calls


@pytest.mark.parametrize("convention", ["xyz", "zyx"])
def test_one_pose_solve_gives_the_standalone_streams(tiny_sequences, kabsch_calls, convention):
    config = PipelineConfig(euler_convention=convention)
    full = tiny_sequences[4]
    subsets = [k for n in range(1, 4) for k in itertools.combinations(FEATURE_KINDS, n)]
    for frames in (1, 2, 11, full.num_frames):
        seq = SkeletonSequence(full.positions[:frames])
        dad = dad_config_for_sequence(seq, bins=config.dad_bins, sigma_scale=config.sigma_scale)
        expected = {"global": global_features(seq, thresholds=dad, lags=config.lags,
                                              convention=convention),
                    "finger": finger_features(seq, lags=config.lags)}
        for kinds in subsets:
            kabsch_calls.clear()
            streams = extract_features(seq, config, kinds=kinds)
            assert set(streams) == set(kinds)
            assert len(kabsch_calls) == (0 if kinds == ("skeleton",) else 1), kinds
            for kind in set(kinds) & set(expected):
                assert streams[kind].tobytes() == expected[kind].tobytes(), (frames, kinds, kind)


def test_degenerate_palm_is_reported_before_a_flat_frame(tiny_sequences):
    positions = tiny_sequences[0].positions.copy()
    positions[0, 2:] = positions[0, 1]      # frame 0: every joint but the wrist on the palm joint
    positions[3] = np.linspace(0.0, 0.1, 22)[:, None] * [1.0, 2.0, 3.0]  # frame 3 on a line
    with pytest.raises(DegeneratePalm):
        extract_features(SkeletonSequence(positions))
    with pytest.raises(DegenerateInput):    # the pose solve alone sees the flat frames
        extract_features(SkeletonSequence(positions), kinds=("finger",))


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(50)
    array = rng.normal(size=(17, 30))
    path = tmp_path / feature_filename(2, 1, 3, 4, "global")
    write_feature_file(path, "global", array, gesture=2, finger=1, subject=3, trial=4)
    meta, loaded = read_feature_file(path)
    np.testing.assert_array_equal(loaded, array)
    assert meta["gesture"] == 2 and meta["trial"] == 4
    assert meta["dims"] == 30 and meta["frames"] == 17


def test_feature_file_write_is_deterministic(tmp_path):
    array = np.random.default_rng(51).normal(size=(9, 100))
    a, b = tmp_path / "a.feat", tmp_path / "b.feat"
    write_feature_file(a, "finger", array, 1, 1, 1, 1)
    write_feature_file(b, "finger", array, 1, 1, 1, 1)
    assert a.read_bytes() == b.read_bytes()


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.feat"
    path.write_bytes(b"NOT-A-FEATURE\n{}\nBINARY\n")
    with pytest.raises(FeatureError):
        read_feature_file(path)


def test_feature_file_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.feat"
    write_feature_file(path, "global", np.zeros((4, 30)), 1, 1, 1, 1)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FeatureError):
        read_feature_file(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_file_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / feature_filename(1, 1, 1, 1, "global")
    array = np.zeros((6, 30))
    array[4, 7] = array[5, 2] = value
    write_feature_file(path, "global", array, 1, 1, 1, 1)
    with pytest.raises(FeatureError, match=rf"^{re.escape(str(path))}: non-finite value "
                                           r".* at frame 4, dim 7 "):
        read_feature_file(path)


def test_failed_replace_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / feature_filename(1, 1, 1, 1, "global")
    write_feature_file(path, "global", np.zeros((4, 30)), 1, 1, 1, 1)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_feature_file(path, "global", np.ones((9, 30)), 1, 1, 1, 1)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert len(load_feature_dir(tmp_path, kinds=("global",))) == 1


def test_load_feature_dir_groups_and_sorts(tmp_path):
    rng = np.random.default_rng(52)
    for gesture, subject in ((2, 1), (1, 2), (1, 1)):
        for kind, dim in (("global", 30), ("finger", 100), ("skeleton", 66)):
            name = feature_filename(gesture, 1, subject, 1, kind)
            write_feature_file(tmp_path / name, kind, rng.normal(size=(8, dim)),
                               gesture, 1, subject, 1)
    grouped = load_feature_dir(tmp_path)
    keys = [(m["gesture"], m["subject"]) for m, _ in grouped]
    assert keys == [(1, 1), (1, 2), (2, 1)]
    assert all(set(streams) == {"global", "finger", "skeleton"} for _, streams in grouped)


def test_load_feature_dir_missing_kind(tmp_path):
    write_feature_file(tmp_path / feature_filename(1, 1, 1, 1, "global"),
                       "global", np.zeros((4, 30)), 1, 1, 1, 1)
    with pytest.raises(FeatureError, match="missing feature kind"):
        load_feature_dir(tmp_path)


def test_load_feature_dir_empty(tmp_path):
    with pytest.raises(FeatureError):
        load_feature_dir(tmp_path)
