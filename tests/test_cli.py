import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gestrec
from gestrec.cli import main
from gestrec.dataset import scan_dataset
from gestrec.errors import GestrecError
from gestrec.features import read_feature_file, write_feature_file
from gestrec.network import load_checkpoint

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


@pytest.mark.parametrize("kinds", ["global,warp", ",", "", "global,global",
                                   "finger, global, finger"],
                         ids=["unknown", "comma", "empty", "repeated", "repeated-spaced"])
def test_extract_unknown_kind_is_usage_error(kinds, synth_root, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["extract", "--dataset", synth_root, "--out", tmp_path / "x",
             "--features", kinds])
    assert err.value.code == 2
    assert not (tmp_path / "x").exists()


def test_extract_missing_dataset_fails(tmp_path):
    rc = run(["extract", "--dataset", tmp_path / "nope", "--out", tmp_path / "out"])
    assert rc == 1


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
