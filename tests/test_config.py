import re
from dataclasses import fields
from pathlib import Path

import pytest

from gestrec.config import FEATURE_KINDS, ConfigError, PipelineConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_match_reference_training_setup():
    config = PipelineConfig()
    assert config.learning_rate == 0.001
    assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.999, 1e-8)
    assert config.batch_size == 32 and config.epochs == 100
    assert config.dad_bins == 5 and config.sigma_scale == 1.5
    assert config.lags == (1, 5, 10)
    assert config.fine_gestures == (1, 3, 4, 5, 6)
    assert config.branches == FEATURE_KINDS == ("global", "finger", "skeleton")


def test_load_config_none_returns_defaults():
    assert load_config(None) == PipelineConfig()


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "lstm_hidden = 17\n"
        "dropout = 0.5   # inline comment\n"
        "lags = 1, 2, 3, 4\n"
        "branches = global, skeleton\n"
        "bidirectional = false\n")
    config = load_config(path)
    assert config.lstm_hidden == 17
    assert config.dropout == 0.5
    assert config.lags == (1, 2, 3, 4)
    assert config.branches == ("global", "skeleton")
    assert config.bidirectional is False
    assert config.epochs == 100    # untouched default


def test_load_config_reads_every_field_in_its_own_format(tmp_path):
    values = dict(dad_bins=7, sigma_scale=2.25, lags=(2, 4, 9), branches=("skeleton", "global"),
                  lstm_hidden=17, fc_out=9, head=(12, 6, 3), dropout=0.125, bidirectional=False,
                  learning_rate=0.02, beta1=0.8, beta2=0.99, epsilon=1e-7, batch_size=5,
                  epochs=3, clip_norm=2.5, stop_accuracy=0.75, fine_gestures=(2, 7))
    assert values.keys() == {f.name for f in fields(PipelineConfig)}
    assert all(value != getattr(PipelineConfig(), name) for name, value in values.items())
    text = {"lags": "2, 4 9", "branches": "skeleton , global", "head": "12 6 3",
            "bidirectional": "no", "fine_gestures": "2,7"}
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{name} = {text.get(name, value)}\n"
                            for name, value in values.items()))
    assert load_config(path) == PipelineConfig(**values)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = ten\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("bidirectional = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(branches=("global", "sonar"))
    with pytest.raises(ConfigError):
        PipelineConfig(branches=())
    with pytest.raises(ConfigError, match="repeat"):
        PipelineConfig(branches=("global", "finger", "global"))


@pytest.mark.parametrize("line", ["dad_bins = 0", "dad_bins = -2", "dad_bins = 1001",
                                  f"dad_bins = {10 ** 30}", "sigma_scale = nan",
                                  "sigma_scale = inf", "sigma_scale = 0", "sigma_scale = -1.5"])
def test_load_config_rejects_bad_dad_settings(line, tmp_path):
    # caught at load time, not once per sequence during extraction
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)


def test_readme_config_table_lists_every_key_once():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | default | meaning |"):].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))
