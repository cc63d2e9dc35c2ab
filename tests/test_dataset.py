import re
import shutil
import warnings

import numpy as np
import pytest

import gestrec.evaluation as evaluation
from gestrec.dataset import (
    DatasetEntry,
    DatasetError,
    DatasetIndex,
    EmptyDataset,
    MissingRoot,
    ParseError,
    _convert_whole,
    _first_error,
    load_sequence,
    scan_dataset,
)
from gestrec.evaluation import run_loocv
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
    with pytest.raises(EmptyDataset, match="^no skeleton files under [^ ]+$"):
        scan_dataset(tmp_path)


def test_scan_with_only_unnumbered_directories_names_them(dhg_tree, tmp_path):
    root, _ = dhg_tree
    copy = tmp_path / "misnamed"
    shutil.copytree(root, copy)
    for gesture in copy.glob("gesture_*"):
        gesture.rename(gesture.with_name(gesture.name + "x"))
    first = min(copy.glob("gesture_*/finger_*/subject_*/essai_*/skeletons_world.txt"))
    with pytest.raises(EmptyDataset, match=re.escape(f"in numbered directories; 12 skipped, first {first}") + "$"):
        scan_dataset(copy)


def test_scan_is_permissive_about_missing_trials(dhg_tree, tmp_path):
    root, _ = dhg_tree
    copy = tmp_path / "partial"
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


def per_line_values(lines, width):
    """The reference conversion: float() on every token, line by line."""
    return np.array([float(v) for raw in lines for v in raw.split()]).reshape(-1, width)


_ROWS = np.random.default_rng(41).normal(0, 0.1, (4, 66))
_GOOD = [" ".join(f"{v:.9g}" for v in row) for row in _ROWS]

# files the whole-file conversion must take, as text before UTF-8 encoding
WELL_FORMED = {
    "tabs": "\n".join("\t".join(row.split()) for row in _GOOD) + "\n",
    "repeated and trailing spaces": "\n".join("  " + "   ".join(row.split()) + " \t"
                                            for row in _GOOD),
    "crlf": "\r\n".join(_GOOD) + "\r\n",
    "blank lines": "\n\n" + "\n \n\n".join(_GOOD) + "\n\t\n",
    "scientific notation": "\n".join(" ".join(f"{v:.17e}" for v in row) for row in _ROWS),
    "one frame": _GOOD[0] + "\n",
}


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_whole_file_conversion_is_bit_equal_to_the_per_line_path(name, tmp_path):
    path = tmp_path / "skeletons_world.txt"
    path.write_bytes(WELL_FORMED[name].encode())
    lines = path.read_text(encoding="utf-8").split("\n")
    assert _convert_whole(lines, 66) is not None
    expected = per_line_values(lines, 66)
    positions = load_sequence(DatasetEntry(1, 1, 1, 1, path)).positions
    assert positions.shape == (len(expected), 22, 3)
    assert positions.tobytes() == expected.tobytes()


_HASHED = [_GOOD[0], "#" + _GOOD[1], _GOOD[2]]   # a commented-out line is still an error
_SHORT_LONG = [" ".join(_GOOD[0].split()[:65]), _GOOD[1] + " 1.0", _GOOD[2]]  # 65 + 67 + 66

# content, error type, expected (attribute, value) pairs
MALFORMED = {
    "hash": ("\n".join(_HASHED).encode(), ParseError, [("line", 2)]),
    "65 and 67 tokens": ("\n".join(_SHORT_LONG).encode(), WrongJointCount,
                         [("frame", 0), ("found", 65)]),
    "not utf-8": ("\n".join(_GOOD[:2]).encode() + b"\n0.1 \xff", ParseError, [("line", 3)]),
    "all blank": (b"\n  \n\t\n\n", ParseError, [("line", 0)]),
    # values float() reads but a DHG file never holds
    "underscore": ("\n".join([_GOOD[0], _GOOD[1].replace(" ", " 1_0 ", 1).split(" ", 1)[1],
                              _GOOD[2]]).encode(), ParseError, [("line", 2)]),
    "arabic-indic digit": ("\n".join(_GOOD[:2] + ["\u0661 " + _GOOD[2].split(" ", 1)[1]]).encode(),
                           ParseError, [("line", 3)]),
    "no-break space": ("\n".join([_GOOD[0].replace(" ", "\xa0", 1)] + _GOOD[1:]).encode(),
                       ParseError, [("line", 1)]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_keep_their_typed_errors(name, tmp_path):
    content, error, fields = MALFORMED[name]
    path = tmp_path / "skeletons_world.txt"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as err:
            load_sequence(DatasetEntry(1, 1, 1, 1, path))
    assert caught == []
    for field, value in fields:
        assert getattr(err.value, field) == value, (field, str(err.value))


def test_whole_file_conversion_never_accepts_what_the_per_line_path_rejects():
    # every file is either converted, bit-equal to float() on each token, or
    # refused with a typed error naming its line or frame
    tokens = ["1", "-2.5", "3e-2", ".5", "+7.", "nan", "-inf", "1e999", "-0", "", "1_0",
              "\u0661", "0x1", "#", "1.0\x00", "x", "1,5", "inf_"]
    separators = [" ", "\t", "   ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
                  "\u3000", "\ufeff", "\x00", ","]
    # non-ASCII separators refuse a file, so half the files use ASCII ones only
    ascii_separators = [sep for sep in separators if sep.isascii()]
    rng = np.random.default_rng(43)
    taken = 0
    for i in range(2000):
        gap_choices = separators if i % 2 else ascii_separators
        lines = []
        for _ in range(rng.integers(0, 3)):
            count = rng.choice([0, 2, 3, 3, 3, 4])
            parts = [str(rng.choice(tokens)) for _ in range(count)]
            gaps = [str(rng.choice(gap_choices)) for _ in range(count + 1)]
            lines.append(gaps[0] + "".join(p + g for p, g in zip(parts, gaps[1:])))
        fast = _convert_whole(lines, 3)
        if fast is None:
            error = _first_error("f", lines, 3)
            assert isinstance(error, (ParseError, WrongJointCount)), lines
            if isinstance(error, ParseError):
                assert 0 <= error.line <= len(lines), lines
            continue
        taken += 1
        assert fast.tobytes() == per_line_values(lines, 3).tobytes(), lines
    assert taken > 10


def test_duplicate_keys_rejected(tmp_path):
    entry = DatasetEntry(1, 1, 1, 1, tmp_path / "skeletons_world.txt")
    with pytest.raises(DatasetError):
        DatasetIndex((entry, entry))


def record_loocv_splits(sequences, monkeypatch):
    """Run `run_loocv` with training and inference stubbed out; return the
    report and, per split, the indices of the sequences it trained and
    tested on."""
    splits = []

    def fake_train(config, samples, classes, seed):
        splits.append({"train": [s.streams["index"] for s in samples]})
        return None, []

    def fake_evaluate(model, samples):
        splits[-1]["test"] = [s.streams["index"] for s in samples]
        return np.zeros(len(samples), dtype=int), None

    monkeypatch.setattr(evaluation, "train_from_config", fake_train)
    monkeypatch.setattr(evaluation, "evaluate", fake_evaluate)
    features = [{"index": i} for i in range(len(sequences))]
    report = run_loocv(sequences, classes=14, features=features)
    return report, splits


def test_loocv_split_invariants(monkeypatch):
    sequences = generate_dataset(builtin_scripts()[:2], subjects=4, trials=2, seed=3)
    report, splits = record_loocv_splits(sequences, monkeypatch)
    assert [r.held_out_subject for r in report.splits] == [1, 2, 3, 4]
    everything = set(range(len(sequences)))
    for result, split in zip(report.splits, splits):
        train, test = set(split["train"]), set(split["test"])
        assert split["train"] == sorted(train) and split["test"] == sorted(test)
        assert train | test == everything
        assert train & test == set()
        assert {sequences[i].subject for i in test} == {result.held_out_subject}
        assert result.held_out_subject not in {sequences[i].subject for i in train}


def test_loocv_test_sizes(dhg_tree, monkeypatch):
    root, _ = dhg_tree
    sequences = [load_sequence(e) for e in scan_dataset(root).entries]
    report, splits = record_loocv_splits(sequences, monkeypatch)
    assert len(report.splits) == 3
    assert all(len(s["test"]) == 4 for s in splits)   # 2 gestures x 2 trials
    assert all(r.n_test == 4 for r in report.splits)
