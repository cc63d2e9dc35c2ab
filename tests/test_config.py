import pytest

from gestrec.config import ConfigError, PipelineConfig, load_config


def test_defaults_match_reference_training_setup():
    config = PipelineConfig()
    assert config.learning_rate == 0.001
    assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.999, 1e-8)
    assert config.batch_size == 32 and config.epochs == 100
    assert config.dad_bins == 5 and config.sigma_scale == 1.5
    assert config.lags == (1, 5, 10)
    assert config.fine_gestures == (1, 3, 4, 5, 6)


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
        "bidirectional = false\n"
        "euler_convention = zyx\n")
    config = load_config(path)
    assert config.lstm_hidden == 17
    assert config.dropout == 0.5
    assert config.lags == (1, 2, 3, 4)
    assert config.branches == ("global", "skeleton")
    assert config.bidirectional is False
    assert config.euler_convention == "zyx"
    assert config.epochs == 100    # untouched default


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
        PipelineConfig(euler_convention="xzy")
    with pytest.raises(ConfigError):
        PipelineConfig(branches=("global", "sonar"))
    with pytest.raises(ConfigError):
        PipelineConfig(branches=())
    with pytest.raises(ConfigError, match="repeat"):
        PipelineConfig(branches=("global", "finger", "global"))


@pytest.mark.parametrize("line", ["dad_bins = 0", "dad_bins = -2", "sigma_scale = nan",
                                  "sigma_scale = inf", "sigma_scale = 0", "sigma_scale = -1.5"])
def test_load_config_rejects_bad_dad_settings(line, tmp_path):
    # caught at load time, not once per sequence during extraction
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)
