import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gestrec
from gestrec import cli
from gestrec.cli import main
from gestrec.dataset import load_sequence, scan_dataset
from gestrec.errors import GestrecError
from gestrec.features import read_feature_file, write_feature_file
from gestrec.network import load_checkpoint
from gestrec.skeleton import MCPS, PALM
from gestrec.synth import export_dhg_tree

TINY_CONFIG = """
# fast settings for CLI tests
lstm_hidden = 8
fc_out = 8
head = 12, 8
dropout = 0.0
learning_rate = 0.02
epochs = 40
batch_size = 16
stop_accuracy = 1.0
fine_gestures = 3, 4
"""


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    assert run(["synth", "--out", root, "--subjects", "3", "--trials", "2",
                "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture(scope="module")
def feature_dir(synth_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "features"
    assert run(["extract", "--dataset", synth_root, "--out", out]) == 0
    return out


def test_synth_builds_scannable_tree(synth_root):
    index = scan_dataset(synth_root)
    assert len(index) == 6 * 3 * 2


def test_synth_same_seed_identical_trees(synth_root, tmp_path):
    other = tmp_path / "again"
    assert run(["synth", "--out", other, "--subjects", "3", "--trials", "2",
                "--seed", "3"]) == 0
    ours = sorted(p.relative_to(synth_root) for p in synth_root.rglob("*.txt"))
    theirs = sorted(p.relative_to(other) for p in other.rglob("*.txt"))
    assert ours == theirs
    for rel in ours:
        assert (synth_root / rel).read_bytes() == (other / rel).read_bytes()


def test_extract_writes_all_kinds(synth_root, feature_dir):
    files = sorted(feature_dir.glob("*.feat"))
    assert len(files) == 3 * 36
    meta, arr = read_feature_file(files[0])
    assert arr.shape[0] == meta["frames"]


def test_extract_rerun_is_byte_identical(synth_root, feature_dir, tmp_path):
    again = tmp_path / "features2"
    assert run(["extract", "--dataset", synth_root, "--out", again]) == 0
    for path in sorted(feature_dir.glob("*.feat")):
        assert (again / path.name).read_bytes() == path.read_bytes()


def test_extract_reports_bad_sequences_and_writes_the_rest(synth_root, feature_dir, tmp_path,
                                                           capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_root, data)
    skeletons = [entry.path for entry in scan_dataset(data).entries]
    # the 0xff byte makes its file undecodable: a ParseError naming line 4
    bad = {skeletons[5]: b"nan", skeletons[12]: b"\xff", skeletons[20]: b"x"}
    for path, token in bad.items():
        lines = path.read_bytes().split(b"\n")
        lines[3] = b" ".join([token] + lines[3].split()[1:])
        path.write_bytes(b"\n".join(lines))
    out = tmp_path / "feats"
    assert run(["extract", "--dataset", data, "--out", out]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == len(bad)
    for line, path in zip(errors, bad):
        assert line.startswith(f"gestrec extract: error: {path}:"), line
    assert errors[1].startswith(f"gestrec extract: error: {skeletons[12]}:4: byte 0xff "), errors[1]
    written = sorted(p.name for p in out.iterdir())
    assert len(written) == 3 * (len(skeletons) - len(bad))
    for name in written:
        assert (out / name).read_bytes() == (feature_dir / name).read_bytes()


def test_extract_skips_an_unreadable_input_and_writes_the_rest(synth_root, feature_dir,
                                                                tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_root, data)
    skeletons = [entry.path for entry in scan_dataset(data).entries]
    skeletons[0].unlink()
    skeletons[0].mkdir()        # still scanned, but reading it raises IsADirectoryError
    out = tmp_path / "feats"
    assert run(["extract", "--dataset", data, "--out", out]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"gestrec extract: error: {skeletons[0]}: "), errors[0]
    written = sorted(p.name for p in out.iterdir())
    assert len(written) == 3 * (len(skeletons) - 1)
    for name in written:
        assert (out / name).read_bytes() == (feature_dir / name).read_bytes()


def test_misnamed_directories_are_reported_and_the_rest_written(synth_root, feature_dir,
                                                                 config_file, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_root, data)
    (data / "gesture_6").rename(data / "gesture_x")
    (data / "gesture_1/finger_1/subject_2/essai_2").rename(
        data / "gesture_1/finger_1/subject_2/essai_2b")
    misnamed = sorted(data.glob("gesture_x/*/*/*/skeletons_world.txt")) \
        + [data / "gesture_1/finger_1/subject_2/essai_2b/skeletons_world.txt"]
    index = scan_dataset(data)
    assert index.skipped == tuple(sorted(misnamed))
    assert len(index.skipped) == 7 and len(index) == 36 - 7
    out = tmp_path / "feats"
    assert run(["extract", "--dataset", data, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"gestrec extract: error: {path}: not in a numbered "
        "gesture_<g>/finger_<f>/subject_<s>/essai_<t> directory" for path in index.skipped]
    assert f"extracted 3 x {36 - 7} feature files" in captured.out
    written = sorted(p.name for p in out.iterdir())
    assert len(written) == 3 * (36 - 7)
    for name in written:
        assert (out / name).read_bytes() == (feature_dir / name).read_bytes()
    # loocv refuses the tree before it trains
    report = tmp_path / "report"
    assert run(["loocv", "--dataset", data, "--config", config_file, "--out", report]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 7 and captured.out == ""
    assert not report.exists()


def test_extract_writes_the_streams_of_branches_and_train_reads_them(feature_dir, synth_root,
                                                                     tmp_path):
    config = tmp_path / "two.cfg"
    config.write_text(TINY_CONFIG + "branches = global, skeleton\n")
    out = tmp_path / "feats"
    assert run(["extract", "--dataset", synth_root, "--out", out, "--config", config]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert len(written) == 2 * 36
    assert written == sorted(p.name for p in feature_dir.iterdir()
                             if not p.name.endswith("_finger.feat"))
    for name in written:
        assert (out / name).read_bytes() == (feature_dir / name).read_bytes()
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--features", out, "--config", config, "--out", ckpt]) == 0
    assert load_checkpoint(ckpt).branches == ("global", "skeleton")


@pytest.mark.parametrize("kinds", ["global,warp", ",", "", "global,global",
                                   "finger, global, finger"],
                         ids=["unknown", "comma", "empty", "repeated", "repeated-spaced"])
def test_extract_refuses_a_bad_branches_setting(kinds, synth_root, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(f"branches = {kinds}\n")
    assert run(["extract", "--dataset", synth_root, "--out", tmp_path / "x",
                "--config", config]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"gestrec extract: error: {config}: "), line
    assert not (tmp_path / "x").exists()


def test_a_config_that_sets_euler_convention_is_refused(synth_root, tmp_path, capsys):
    config = tmp_path / "euler.cfg"
    config.write_text("euler_convention = xyz\n")
    assert run(["extract", "--dataset", synth_root, "--out", tmp_path / "x",
                "--config", config]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"gestrec extract: error: {config}:1: unknown key 'euler_convention'"]
    assert not (tmp_path / "x").exists()


def test_a_tree_with_two_directories_of_one_key_is_refused(synth_root, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_root, data)
    shutil.copytree(data / "gesture_1", data / "gesture_01")
    assert run(["extract", "--dataset", data, "--out", tmp_path / "feats"]) == 1
    tail = "finger_1/subject_1/essai_1/skeletons_world.txt"
    assert capsys.readouterr().err.splitlines() == [
        "gestrec extract: error: duplicate (gesture, finger, subject, trial) key (1, 1, 1, 1): "
        f"{data}/gesture_01/{tail} and {data}/gesture_1/{tail}"]
    assert not (tmp_path / "feats").exists()


def test_extract_missing_dataset_fails(tmp_path):
    rc = run(["extract", "--dataset", tmp_path / "nope", "--out", tmp_path / "out"])
    assert rc == 1


def test_a_lag_longer_than_every_sequence_gives_the_features_of_any_other(synth_root,
                                                                          tmp_path):
    outs = []
    for lag in ("1000", "99999999999999999999"):
        config = tmp_path / f"lag{lag}.cfg"
        config.write_text(f"lags = {lag}\n")
        outs.append(tmp_path / f"feats{lag}")
        assert run(["extract", "--dataset", synth_root, "--out", outs[-1],
                    "--config", config]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert len(names) == 108 and names == sorted(path.name for path in outs[1].iterdir())
    assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)


@pytest.mark.parametrize("command", ["synth", "train", "loocv"])
def test_negative_seed_is_usage_error(command, synth_root, feature_dir, tmp_path, capsys):
    inputs = {"synth": ["--out", tmp_path / "data"],
              "train": ["--features", feature_dir, "--out", tmp_path / "m.ckpt"],
              "loocv": ["--dataset", synth_root, "--out", tmp_path / "report"]}[command]
    with pytest.raises(SystemExit) as err:
        run([command, *inputs, "--seed", "-1"])
    assert err.value.code == 2
    assert "argument --seed: must be a non-negative integer: '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


DIVERGING_CONFIG = "learning_rate = 1e30\nlstm_hidden = 4\nfc_out = 4\nhead = 4\nepochs = 2\n"


def test_train_refuses_to_save_a_diverged_model(feature_dir, tmp_path, capsys):
    config = tmp_path / "diverge.cfg"
    config.write_text(DIVERGING_CONFIG)
    ckpt = tmp_path / "m.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["train", "--features", feature_dir, "--config", config, "--out", ckpt])
    assert rc == 1
    assert list(tmp_path.iterdir()) == [config]
    assert [str(w.message) for w in caught] == []  # numpy's overflow warnings stay off stderr
    assert capsys.readouterr().err.splitlines() == [
        "gestrec train: error: training diverged at epoch 1, step 2: the loss is nan"]


def test_loocv_refuses_a_diverged_split_and_writes_no_report(synth_root, tmp_path, capsys):
    config = tmp_path / "diverge.cfg"
    config.write_text(DIVERGING_CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["loocv", "--dataset", synth_root, "--config", config,
                  "--out", tmp_path / "report"])
    assert rc == 1
    assert list(tmp_path.iterdir()) == [config]
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "gestrec loocv: error: held-out subject 1: training diverged at epoch 2, step 1: "
        "the loss is nan"]


def _with_first_sequence_changed(synth_root, tmp_path, change):
    """A copy of the synth tree whose first sequence has `change` applied to
    its positions; returns (tree root, that sequence's skeleton file)."""
    data = tmp_path / "data"
    shutil.copytree(synth_root, data)
    entry = scan_dataset(data).entries[0]
    seq = load_sequence(entry)
    change(seq.positions)
    export_dhg_tree([seq], data)
    return data, entry.path


@pytest.mark.parametrize("command", ["extract", "loocv"])
def test_coordinates_that_would_overflow_are_one_line_errors(command, synth_root, tmp_path,
                                                              capsys):
    data, path = _with_first_sequence_changed(synth_root, tmp_path,
                                              lambda p: np.multiply(p, 1e160, out=p))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([command, "--dataset", data, "--out", tmp_path / "out"])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    where = {"extract": f"{path}", "loocv": "sequence (1, 1, 1, 1)"}[command]
    assert capsys.readouterr().err.splitlines() == [
        f"gestrec {command}: error: {where}: |coordinate| > 1e+100 at frame 0, joint 0"]


@pytest.mark.parametrize("scripts,where", [
    ("[script a]\ngesture = 1\ntx = 0:0, 1:1e200\n"
     "[script b]\ngesture = 2\nnoise_sigma = 1e300\n",
     "script a, subject 1, trial 1: |coordinate| > 1e+100 at frame 1, joint 0"),
    ("[script a]\ngesture = 1\n[script b]\ngesture = 2\nnoise_sigma = 1e300\n",
     "script b, subject 1, trial 1: |coordinate| > 1e+100 at frame 0, joint 0")],
    ids=["huge-tx", "huge-noise"])
def test_synth_refuses_a_sequence_that_extract_would_refuse(scripts, where, tmp_path, capsys):
    path = tmp_path / "scripts.txt"
    path.write_text(scripts)
    assert run(["synth", "--out", tmp_path / "data", "--scripts", path]) == 1
    assert capsys.readouterr().err.splitlines() == [f"gestrec synth: error: {where}"]
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command,option,text,lines,key", [
    ("extract", "--config", "epochs = 5\nlstm_hidden = 4\nepochs = 7\n", (3, 1), "epochs"),
    ("synth", "--scripts", "[script a]\ngesture = 1\ntx = 0:0, 1:0.1\ngesture = 3\n"
                           "tx = 0:0, 1:0.2\n[script b]\ngesture = 2\n", (4, 2), "gesture"),
    ("synth", "--scripts", "[script a]\ngesture = 1\ntx = 0:0, 1:0.1\n# again\n"
                           "tx = 0:0, 1:0.2\n[script b]\ngesture = 2\n", (5, 3), "tx")],
    ids=["config", "script-field", "script-curve"])
def test_a_key_set_twice_is_refused_naming_both_lines(command, option, text, lines, key,
                                                      synth_root, tmp_path, capsys):
    # a key that an earlier script section set is the next section's own
    path = tmp_path / "settings.txt"
    path.write_text(text)
    inputs = {"extract": ["--dataset", synth_root], "synth": []}[command]
    assert run([command, *inputs, "--out", tmp_path / "out", option, path]) == 1
    again, first = lines
    assert capsys.readouterr().err.splitlines() == [
        f"gestrec {command}: error: {path}:{again}: {key!r} is already set at {path}:{first}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["no-frames", "no-dims", "unknown-key"])
def test_train_names_a_feature_file_whose_header_is_refused(case, feature_dir, config_file,
                                                            tmp_path, capsys):
    # the three files of sequence (1, 1, 1, 1); `train` reads the global one first
    features = tmp_path / "features"
    shutil.copytree(feature_dir, features)
    for path in sorted(features.glob("g01_f01_s01_t01_*.feat")):
        if case == "unknown-key":
            magic, header, rest = path.read_bytes().split(b"\n", 2)
            header = json.dumps({**json.loads(header), "note": "x"}, sort_keys=True)
            path.write_bytes(b"\n".join([magic, header.encode(), rest]))
        else:
            meta, array = read_feature_file(path)
            empty = array[:0] if case == "no-frames" else array[:, :0]
            write_feature_file(path, meta["kind"], empty, meta["gesture"], meta["finger"],
                               meta["subject"], meta["trial"])
    assert run(["train", "--features", features, "--config", config_file,
                "--out", tmp_path / "m.ckpt"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"gestrec train: error: {features / 'g01_f01_s01_t01_global.feat'}: header needs "
        f"exactly a string 'kind', positive integers dims, frames and non-negative integers "
        f"gesture, finger, subject, trial"]
    assert not (tmp_path / "m.ckpt").exists()


def test_loocv_names_the_sequence_whose_features_fail(synth_root, tmp_path, capsys):
    def collapse_palm(positions):
        positions[0, list(MCPS)] = positions[0, PALM]

    data, _ = _with_first_sequence_changed(synth_root, tmp_path, collapse_palm)
    assert run(["loocv", "--dataset", data, "--out", tmp_path / "report"]) == 1
    assert not (tmp_path / "report").exists()
    assert capsys.readouterr().err.splitlines() == [
        "gestrec loocv: error: sequence (1, 1, 1, 1): all MCP joints coincide with the palm "
        "joint"]


@pytest.mark.parametrize("command", ["extract", "loocv"])
def test_a_huge_dad_bins_is_refused_before_any_work(command, synth_root, tmp_path, capsys):
    # without an upper bound, the bin edges are built one Python step per bin
    config = tmp_path / "bins.cfg"
    config.write_text(f"dad_bins = {10 ** 30}\n")

    def expire(signum, frame):
        pytest.fail(f"gestrec {command} still running after 3 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(3)
    try:
        rc = run([command, "--dataset", synth_root, "--config", config,
                  "--out", tmp_path / "out"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 1
    assert list(tmp_path.iterdir()) == [config]
    assert capsys.readouterr().err.splitlines() == [
        f"gestrec {command}: error: {config}: dad_bins must be in [1, 1000]: {10 ** 30}"]


UNWRITABLE_OUTPUTS = {
    # case: (command, option, its path and the path the error names below
    # tmp_path, the error's errno text)
    "loocv-out-is-a-file":
        ("loocv", "--out", "taken.txt", "taken.txt", "[Errno 17] File exists"),
    "loocv-out-under-a-file":
        ("loocv", "--out", "taken.txt/report", "taken.txt", "[Errno 20] Not a directory"),
    "train-out-is-a-directory":
        ("train", "--out", "taken", "taken", "[Errno 21] Is a directory"),
    "train-out-in-a-missing-directory":
        ("train", "--out", "missing/m.ckpt", "missing", "[Errno 2] No such file or directory"),
    "train-log-in-a-missing-directory":
        ("train", "--log", "missing/x.csv", "missing", "[Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE_OUTPUTS))
def test_an_unwritable_output_is_refused_before_any_work(case, synth_root, feature_dir,
                                                          config_file, tmp_path, capsys,
                                                          monkeypatch):
    command, option, where, named, reason = UNWRITABLE_OUTPUTS[case]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} began to train before it checked its outputs")

    monkeypatch.setattr(cli, "train_from_config", no_work)
    monkeypatch.setattr(cli, "run_loocv", no_work)
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken.txt").write_text("kept\n")
    argv = {"train": ["train", "--features", feature_dir, "--out", tmp_path / "m.ckpt"],
            "loocv": ["loocv", "--dataset", synth_root, "--out", tmp_path / "report"]}[command]
    argv += ["--config", config_file, option, tmp_path / where]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"gestrec {command}: error: {reason}: '{tmp_path / named}'"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "taken.txt"]
    assert list((tmp_path / "taken").iterdir()) == []
    assert (tmp_path / "taken.txt").read_text() == "kept\n"


@pytest.mark.parametrize("out, log", [("m.ckpt", "m.ckpt"), ("m.ckpt", "./m.ckpt"),
                                      ("sub/../m.ckpt", "m.ckpt")])
def test_train_refuses_a_log_that_is_the_checkpoint(out, log, feature_dir, config_file,
                                                     tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("train began to train before it compared --log with --out")

    monkeypatch.setattr(cli, "train_from_config", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(["train", "--features", feature_dir, "--config", config_file,
                "--out", out, "--log", log]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"gestrec train: error: --log and --out name the same file: {out}"]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_train_overfits_synthetic_and_logs(feature_dir, config_file, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    rc = run(["train", "--features", feature_dir, "--classes", "14",
              "--seed", "1", "--config", config_file, "--out", ckpt])
    assert rc == 0
    model = load_checkpoint(ckpt)
    assert model.classes == 14
    log_lines = (tmp_path / "model.ckpt.log.csv").read_text().strip().splitlines()
    assert log_lines[0] == ("epoch,loss,train_accuracy,grad_norm_mean,grad_norm_max,"
                            "clipped_fraction,seconds")
    final_accuracy = float(log_lines[-1].split(",")[2])
    assert final_accuracy == 1.0


def test_train_same_seed_identical_checkpoints(feature_dir, config_file, tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for out in (first, second):
        assert run(["train", "--features", feature_dir, "--classes", "14",
                    "--seed", "9", "--config", config_file, "--out", out]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_label_range_error(tmp_path, config_file):
    # scripts with gesture ids beyond 14 cannot be trained as 14 classes
    scripts = tmp_path / "scripts.txt"
    scripts.write_text(
        "[script far]\ngesture = 15\ntx = 0:0, 1:0.2\n\n"
        "[script farther]\ngesture = 16\nrz = 0:0, 1:0.5\n")
    data = tmp_path / "data"
    assert run(["synth", "--out", data, "--subjects", "2", "--trials", "1",
                "--seed", "1", "--scripts", scripts]) == 0
    feats = tmp_path / "feats"
    assert run(["extract", "--dataset", data, "--out", feats]) == 0
    rc = run(["train", "--features", feats, "--classes", "14",
              "--config", config_file, "--out", tmp_path / "m.ckpt"])
    assert rc == 1
    rc = run(["train", "--features", feats, "--classes", "28",
              "--config", config_file, "--out", tmp_path / "m.ckpt"])
    assert rc == 1


def test_train_missing_branch_errors(feature_dir, config_file, tmp_path):
    partial = tmp_path / "partial"
    partial.mkdir()
    for path in feature_dir.glob("*_global.feat"):
        (partial / path.name).write_bytes(path.read_bytes())
    rc = run(["train", "--features", partial, "--classes", "14",
              "--config", config_file, "--out", tmp_path / "m.ckpt"])
    assert rc == 1


def test_loocv_report_files(synth_root, config_file, tmp_path, capsys):
    out = tmp_path / "report"
    rc = run(["loocv", "--dataset", synth_root, "--classes", "14",
              "--seed", "2", "--config", config_file, "--out", out])
    assert rc == 0
    per_split = (out / "per_split.csv").read_text().strip().splitlines()
    assert len(per_split) == 1 + 3
    confusion = (out / "confusion.csv").read_text().strip().splitlines()
    cells = np.array([row.split(",")[1:] for row in confusion[1:]], dtype=int)
    assert cells.sum() == 36
    # row sums equal per-class true counts: 6 per gesture for gestures 1..6
    np.testing.assert_array_equal(cells.sum(axis=1)[:6], 6)
    out = capsys.readouterr().out
    assert "LOOCV over 3 subjects" in out
    epochs = re.findall(r"subject +(\d+): .* after (\d+) epochs, \d+\.\d\d s\n", out)
    assert len(epochs) == 3
    training = (tmp_path / "report" / "training.csv").read_text().splitlines()
    assert training[0] == "held_out_subject,epoch,loss,grad_norm_mean,grad_norm_max,clipped_fraction"
    assert [row.split(",")[:2] for row in training[1:]] == \
        [[subject, str(epoch)] for subject, n in epochs for epoch in range(1, int(n) + 1)]


FEATURE_HEADER = {"kind": "global", "dims": 30, "frames": 4,
                  "gesture": 1, "finger": 1, "subject": 1, "trial": 1}


def _header_without(key):
    return json.dumps({k: v for k, v in FEATURE_HEADER.items() if k != key})


MALFORMED = [
    ("synth", "scripts", "[script a]\ngesture = x\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\nduration = 5\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\ntx = 0.1\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\nduration = 9 5\n[script b]\ngesture = 2\n"),
    ("train", "header", "{not json"),
    ("train", "header", _header_without("frames")),
    ("train", "header", _header_without("dims")),
    ("train", "header", _header_without("kind")),
    ("train", "header", _header_without("subject")),
    ("train", "config", TINY_CONFIG + "lstm_hidden = 0\n"),
    ("train", "config", TINY_CONFIG + "fc_out = 0\n"),
    ("train", "config", TINY_CONFIG + "epochs = 0\n"),
    ("loocv", "config", TINY_CONFIG + "head = 8, 0\n"),
    ("loocv", "config", TINY_CONFIG + "batch_size = 0\n"),
    ("extract", "config", "lags = 1, -2\n"),
    ("train", "config", TINY_CONFIG + "learning_rate = nan\n"),
    ("train", "config", TINY_CONFIG + "clip_norm = -3\n"),
    ("loocv", "config", TINY_CONFIG + "beta1 = 1\n"),
    ("loocv", "config", TINY_CONFIG + "stop_accuracy = 7\n"),
    ("extract", "config", b"lags = 1\xff\n"),
    ("synth", "scripts", b"[script a]\ngesture = \xff1\n"),
    ("train", "dims", 24),
    ("extract", "config", "sigma_scale = nan\n"),
    ("extract", "config", "sigma_scale = inf\n"),
    ("extract", "config", "dad_bins = 0\n"),
    ("train", "values", float("nan")),
    ("train", "values", float("inf")),
    ("train", "config", TINY_CONFIG + "branches = global, global\n"),
    ("loocv", "config", TINY_CONFIG + "branches = finger, skeleton, finger\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\nnoise_sigma = -1\n[script b]\ngesture = 2\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\namp_jitter = inf\n[script b]\ngesture = 2\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\nindex_flex = 0:0, 1:nan\n"
                         "[script b]\ngesture = 2\n"),
    ("synth", "scripts", "[script a]\ngesture = 1\ntx = 1:0.1, 0:0\n[script b]\ngesture = 2\n"),
    ("synth", "scripts", "[script a]\ngesture = -1\n[script b]\ngesture = 2\n"),
    # sizes numpy cannot allocate; a large size that can be allocated is never tried
    ("train", "config", TINY_CONFIG + f"lstm_hidden = {10 ** 399}\n"),
    ("train", "config", TINY_CONFIG + f"fc_out = {10 ** 399}\n"),
    ("loocv", "config", TINY_CONFIG + f"head = 8, {10 ** 399}\n"),
    # numpy would allocate every frame, or fail in the trial's draw past int64
    ("synth", "scripts", f"[script a]\ngesture = 1\nduration = 1 {10 ** 20}\n"
                         "[script b]\ngesture = 2\n"),
]


@pytest.mark.parametrize("command,kind,content", MALFORMED,
                         ids=[f"{c}-{k}-{i}" for i, (c, k, _) in enumerate(MALFORMED)])
def test_malformed_input_is_one_line_error(command, kind, content, synth_root, feature_dir,
                                           tmp_path, capsys):
    inputs = {"synth": ["--out", tmp_path / "data"],
              "train": ["--features", feature_dir, "--out", tmp_path / "m.ckpt"],
              "loocv": ["--dataset", synth_root, "--out", tmp_path / "report"],
              "extract": ["--dataset", synth_root, "--out", tmp_path / "feats"]}[command]
    path = tmp_path / "input.txt"
    if kind in ("dims", "values"):
        # one sequence's global stream narrowed to `content` dims, as if it
        # had been extracted with fewer lags than the rest, or with one value
        # replaced by the non-finite `content`
        inputs[1] = tmp_path / "bad_feats"
        shutil.copytree(feature_dir, inputs[1])
        path = sorted(inputs[1].glob("*_global.feat"))[-1]
        meta, array = read_feature_file(path)
        if kind == "dims":
            array = array[:, :content]
        else:
            array[3, 5] = content
        write_feature_file(path, "global", array, meta["gesture"], meta["finger"],
                           meta["subject"], meta["trial"])
    elif kind == "header":
        inputs[1] = tmp_path / "bad_feats"
        inputs[1].mkdir()
        path = inputs[1] / "g01_f01_s01_t01_global.feat"
        path.write_bytes(b"GESTREC-FEAT 1\n" + content.encode() + b"\nBINARY\n"
                         + bytes(8 * 4 * 30))
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        inputs += ["--scripts" if kind == "scripts" else "--config", path]
    assert run([command, *inputs]) == 1
    assert not (tmp_path / "m.ckpt").exists()
    assert not (tmp_path / "data").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"gestrec {command}: error:"), err


def test_every_package_exception_is_a_gestrec_error():
    defined = []
    for info in pkgutil.iter_modules(gestrec.__path__):
        module = importlib.import_module(f"gestrec.{info.name}")
        defined += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, Exception) and cls.__module__ == module.__name__]
    assert len(defined) > 10
    assert [cls for cls in defined if not issubclass(cls, GestrecError)] == []


def test_import_loads_no_scipy():
    # scipy costs about 24 MB resident and 0.3 s of start-up in every run
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, gestrec, gestrec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
