import re

import numpy as np
import pytest

from gestrec.dataset import EmptyDataset, load_sequence, scan_dataset
from gestrec.features import extract_features
from gestrec.hand_model import REST_POSITIONS, forward_kinematics
from gestrec.skeleton import SkeletonSequence
from gestrec.synth import (
    MAX_DURATION,
    GestureScript,
    InvalidConfig,
    builtin_scripts,
    export_dhg_tree,
    generate_dataset,
    parse_scripts,
)


def test_fk_zero_angles_reproduces_rest_pose():
    frame = forward_kinematics(np.zeros(6), np.zeros(20))
    np.testing.assert_array_equal(frame, REST_POSITIONS)


def test_fk_pure_translation():
    frame = forward_kinematics([0, 0, 0, 1.0, 2.0, 3.0], np.zeros(20))
    np.testing.assert_allclose(frame, REST_POSITIONS + [1.0, 2.0, 3.0],
                               atol=1e-12)


def test_builtin_scripts_cover_archetypes():
    scripts = builtin_scripts()
    assert len(scripts) >= 6
    assert len({s.gesture for s in scripts}) == len(scripts)
    kinds = {s.name for s in scripts}
    assert {"swipe", "rotate", "grab", "pinch", "shake"} <= kinds


def test_script_rejects_out_of_box_angles():
    with pytest.raises(InvalidConfig):
        GestureScript("bad", 1, {"index_pip": ((0.0, 0.0), (1.0, 1.5))})
    with pytest.raises(InvalidConfig):
        GestureScript("bad", 1, {"nonsense_channel": ((0.0, 0.0),)})


@pytest.mark.parametrize("fields", [
    {"gesture": 0}, {"gesture": -1}, {"finger": 0}, {"finger": 3},
    {"amp_jitter": -0.1}, {"amp_jitter": 1.0}, {"amp_jitter": float("inf")},
    {"speed_jitter": float("nan")}, {"noise_sigma": -1.0}, {"noise_sigma": float("inf")},
    {"noise_sigma": float("nan")},
    {"curves": {"tx": ((1.0, 0.1), (0.0, 0.0))}},
    {"curves": {"tx": ((0.0, 0.1), (0.0, 0.2))}},
    {"curves": {"tx": ((-0.5, 0.1), (1.0, 0.2))}},
    {"curves": {"tx": ((0.0, 0.1), (1.5, 0.2))}},
    {"curves": {"tx": ((0.0, 0.1), (float("nan"), 0.2))}},
    {"curves": {"index_flex": ((0.0, 0.0), (1.0, float("nan")))}},
    {"curves": {"tx": ((0.0, float("inf")),)}},
])
def test_script_rejects_malformed_fields(fields):
    with pytest.raises(InvalidConfig):
        GestureScript(**{"name": "bad", "gesture": 1, **fields})


def test_script_accepts_the_field_boundaries():
    GestureScript("edges", 1, {"tx": ((0.0, 0.0), (1.0, 0.1))}, finger=2, amp_jitter=0.0,
                  speed_jitter=0.0, noise_sigma=0.0)


def test_script_duration_is_bounded():
    GestureScript("longest", 1, duration=(1, MAX_DURATION))
    with pytest.raises(InvalidConfig, match=f"^script long: duration above {MAX_DURATION} frames$"):
        GestureScript("long", 1, duration=(1, MAX_DURATION + 1))


def test_generate_counts_and_metadata():
    seqs = generate_dataset(builtin_scripts()[:3], subjects=4, trials=5, seed=5)
    assert len(seqs) == 60
    keys = {(s.gesture, s.subject, s.trial) for s in seqs}
    assert len(keys) == 60
    assert {s.subject for s in seqs} == {1, 2, 3, 4}
    assert all(s.num_frames >= 12 for s in seqs)


def test_generate_is_deterministic():
    a = generate_dataset(builtin_scripts(), 2, 2, seed=9)
    b = generate_dataset(builtin_scripts(), 2, 2, seed=9)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.positions, y.positions)


def test_generate_rejects_bad_configs():
    with pytest.raises(InvalidConfig):
        generate_dataset(builtin_scripts()[:1], 2, 2, seed=0)
    with pytest.raises(InvalidConfig):
        generate_dataset(builtin_scripts()[:2], 0, 2, seed=0)
    twice = [builtin_scripts()[0], builtin_scripts()[0]]
    with pytest.raises(InvalidConfig):
        generate_dataset(twice, 2, 2, seed=0)


def test_grab_vs_pinch_amplitude_hits_different_bins():
    scripts = {s.name: s for s in builtin_scripts()}
    seqs = generate_dataset([scripts["grab"], scripts["pinch"]], 1, 1, seed=3)
    by_name = {s.gesture: s for s in seqs}
    grab_bins = extract_features(by_name[scripts["grab"].gesture])["global"][:, 0]
    pinch_bins = extract_features(by_name[scripts["pinch"].gesture])["global"][:, 0]
    assert grab_bins.max() > pinch_bins.max()


def test_export_scan_load_roundtrip(tmp_path):
    seqs = generate_dataset(builtin_scripts()[:2], 2, 2, seed=11)
    export_dhg_tree(seqs, tmp_path)
    index = scan_dataset(tmp_path)
    assert len(index) == len(seqs)
    expected_keys = {(s.gesture, s.finger, s.subject, s.trial) for s in seqs}
    assert {e.key for e in index.entries} == expected_keys
    by_key = {(s.gesture, s.finger, s.subject, s.trial): s for s in seqs}
    for entry in index.entries:
        loaded = load_sequence(entry)
        # the file holds each value to 9 significant digits, read back exactly
        positions = by_key[entry.key].positions
        written = np.array([float(format(v, ".9g")) for v in positions.ravel().tolist()])
        np.testing.assert_array_equal(loaded.positions, written.reshape(positions.shape))


def test_export_text_is_each_value_formatted_to_nine_digits(tmp_path):
    positions = np.random.default_rng(13).normal(scale=0.1, size=(4, 22, 3))
    positions[0, 0] = (-0.0, 5e-324, 1e300)
    positions[3, 21] = (0.0, -1e-300, 123456789.123456)
    export_dhg_tree([SkeletonSequence(positions, gesture=2, finger=1, subject=3, trial=4)],
                    tmp_path)
    text = (tmp_path / "gesture_2" / "finger_1" / "subject_3" / "essai_4"
            / "skeletons_world.txt").read_text()
    rows = positions.reshape(4, 66)
    assert text == "".join(" ".join(format(v, ".9g") for v in row) + "\n" for row in rows)
    assert text.startswith("-0 4.94065646e-324 1e+300 ")


def test_export_empty_gives_empty_tree(tmp_path):
    export_dhg_tree([], tmp_path / "empty")
    with pytest.raises(EmptyDataset):
        scan_dataset(tmp_path / "empty")


SCRIPT_TEXT = """
# two toy gestures
[script wave]
gesture = 1
duration = 20 30
tx = 0:0, 0.5:0.2, 1:0
index_flex = 0:0, 1:0.8

[script poke]
gesture = 2
finger = 2
noise_sigma = 0.002
tz = 0:0, 1:-0.1
"""


def test_parse_scripts_roundtrip(tmp_path):
    path = tmp_path / "scripts.txt"
    path.write_text(SCRIPT_TEXT)
    scripts = parse_scripts(path)
    assert [s.name for s in scripts] == ["wave", "poke"]
    wave, poke = scripts
    assert wave.gesture == 1 and wave.duration == (20, 30)
    assert wave.curves["tx"] == ((0.0, 0.0), (0.5, 0.2), (1.0, 0.0))
    assert poke.finger == 2 and poke.noise_sigma == 0.002
    seqs = generate_dataset(scripts, 2, 1, seed=1)
    assert len(seqs) == 4


def test_parse_scripts_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[script x]\nduration = 5 9\n")
    with pytest.raises(InvalidConfig, match="gesture"):
        parse_scripts(path)
    path.write_text("gesture = 1\n")
    with pytest.raises(InvalidConfig):
        parse_scripts(path)


def test_parse_scripts_tells_a_line_without_equals_from_one_outside_a_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[script a]\ngesture = 1\nnonsense\n")
    with pytest.raises(InvalidConfig, match=f"^{re.escape(str(path))}:3: expected 'key = value'$"):
        parse_scripts(path)
    path.write_text("nonsense\n[script a]\ngesture = 1\n")
    with pytest.raises(InvalidConfig, match=":1: unexpected line outside a script section"):
        parse_scripts(path)
