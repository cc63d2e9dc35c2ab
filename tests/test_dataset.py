import re

import numpy as np
import pytest

from gestrec.dataset import (
    DatasetEntry,
    DatasetError,
    DatasetIndex,
    EmptyDataset,
    MissingRoot,
    MissingSubject,
    ParseError,
    load_sequence,
    make_loocv_splits,
    scan_dataset,
)
from gestrec.skeleton import WrongJointCount
from gestrec.synth import builtin_scripts, export_dhg_tree, generate_dataset


@pytest.fixture(scope="module")
def dhg_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("dhg")
    seqs = generate_dataset(builtin_scripts()[:2], subjects=3, trials=2, seed=2)
    export_dhg_tree(seqs, root)
    return root, seqs


def test_scan_counts_and_order(dhg_tree):
    root, seqs = dhg_tree
    index = scan_dataset(root)
    assert len(index) == len(seqs) == 12
    keys = [e.key for e in index.entries]
    assert keys == sorted(keys)


def test_scan_missing_root(tmp_path):
    with pytest.raises(MissingRoot):
        scan_dataset(tmp_path / "nope")


def test_scan_empty(tmp_path):
    with pytest.raises(EmptyDataset):
        scan_dataset(tmp_path)


def test_scan_is_permissive_about_missing_trials(dhg_tree, tmp_path):
    root, _ = dhg_tree
    copy = tmp_path / "partial"
    import shutil
    shutil.copytree(root, copy)
    victim = next(copy.glob("gesture_*/finger_*/subject_*/essai_2/skeletons_world.txt"))
    victim.unlink()
    (copy / "stray.txt").write_text("ignore me\n")
    index = scan_dataset(copy)
    assert len(index) == 11


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return DatasetEntry(1, 1, 1, 1, path)


def test_load_sequence_shape(tmp_path):
    rng = np.random.default_rng(40)
    rows = [" ".join(f"{v:.6f}" for v in rng.normal(size=66)) for _ in range(60)]
    entry = write_lines(tmp_path / "ok.txt", rows)
    seq = load_sequence(entry)
    assert seq.positions.shape == (60, 22, 3)
    assert (seq.gesture, seq.finger, seq.subject, seq.trial) == (1, 1, 1, 1)


def test_load_sequence_accepts_scientific_notation(tmp_path):
    row = " ".join(["1.5e-2"] * 66)
    entry = write_lines(tmp_path / "sci.txt", [row])
    seq = load_sequence(entry)
    np.testing.assert_allclose(seq.positions, 0.015)


def test_load_sequence_wrong_count(tmp_path):
    entry = write_lines(tmp_path / "short.txt", [" ".join(["0.0"] * 65)])
    with pytest.raises(WrongJointCount) as err:
        load_sequence(entry)
    assert err.value.found == 65


def test_load_sequence_parse_error(tmp_path):
    tokens = ["0.0"] * 66
    tokens[10] = "abc"
    entry = write_lines(tmp_path / "bad.txt", [" ".join(tokens)])
    with pytest.raises(ParseError):
        load_sequence(entry)


def test_load_sequence_errors_count_lines_from_one_and_frames_past_blanks(tmp_path):
    good = " ".join(["0.0"] * 66)
    entry = write_lines(tmp_path / "bad.txt", [good, "", good, "x" + good[3:]])
    with pytest.raises(ParseError, match=re.escape(f"{entry.path}:4: ")) as err:
        load_sequence(entry)
    assert err.value.line == 4
    entry = write_lines(tmp_path / "short.txt", [good, "", good, good[4:]])
    with pytest.raises(WrongJointCount) as err:
        load_sequence(entry)
    assert (err.value.frame, err.value.found) == (2, 65)

def entries_for(subjects, trials=2):
    out = []
    for s in subjects:
        for g in (1, 2):
            for t in range(1, trials + 1):
                out.append(DatasetEntry(g, 1, s, t))
    return DatasetIndex(tuple(out))


def test_duplicate_keys_rejected():
    entry = DatasetEntry(1, 1, 1, 1)
    with pytest.raises(DatasetError):
        DatasetIndex((entry, entry))


def test_loocv_split_invariants():
    index = entries_for(range(1, 5))
    splits = make_loocv_splits(index)
    assert [s.held_out_subject for s in splits] == [1, 2, 3, 4]
    all_keys = {e.key for e in index.entries}
    for split in splits:
        train = {e.key for e in split.train_entries}
        test = {e.key for e in split.test_entries}
        assert train | test == all_keys
        assert train & test == set()
        assert {e.subject for e in split.test_entries} == {split.held_out_subject}
        assert split.held_out_subject not in {e.subject for e in split.train_entries}


def test_loocv_missing_subject():
    index = entries_for([1, 2, 3, 4, 5, 6, 8])   # gap at 7
    with pytest.raises(MissingSubject) as err:
        make_loocv_splits(index)
    assert err.value.subject == 7


def test_loocv_test_sizes(dhg_tree):
    root, _ = dhg_tree
    splits = make_loocv_splits(scan_dataset(root))
    assert len(splits) == 3
    assert all(len(s.test_entries) == 4 for s in splits)   # 2 gestures x 2 trials
