"""Run-configuration parsing, validation, and round-tripping."""

from __future__ import annotations

import pytest

from dfslineup.config import (
    RandomBaselineConfig,
    ReportConfig,
    RunConfig,
    TrainingConfig,
    config_from_dict,
    load_config,
    save_config,
)
from dfslineup.errors import ConfigError


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.n_models == 200
    assert cfg.salary_cap == 50_000
    assert cfg.random_baseline.count == 35_000
    assert cfg.random_baseline.min_salary == 45_000
    assert cfg.training.hidden_units == 19


def test_round_trip(tmp_path):
    cfg = RunConfig(
        target_week=9,
        n_models=17,
        master_seed=5,
        training=TrainingConfig(hidden_units=7, max_epochs=50),
        random_baseline=RandomBaselineConfig(count=100, min_salary=30_000),
        report=ReportConfig(ci_level=0.9, bootstrap_resamples=500),
    )
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"target_weak": 8})
    with pytest.raises(ConfigError, match="unknown keys in 'training'"):
        config_from_dict({"training": {"hidden": 19}})
    with pytest.raises(ConfigError, match=r"unknown config keys: \[1, 'foo'\]"):
        config_from_dict({1: 2, "foo": 3})
    with pytest.raises(ConfigError, match=r"unknown keys in 'training' section: \[1, 'x'\]"):
        config_from_dict({"training": {1: 2, "x": 3}})


@pytest.mark.parametrize(
    "overrides",
    [
        {"target_week": 4},
        {"target_week": 18},
        {"n_models": 0},
        {"workers": 0},
        {"salary_cap": 40_000},  # default min_salary 45,000 exceeds it
        {"report": {"ci_level": 1.5}},
        {"report": {"histogram_bin_width": 0}},
        {"report": {"histogram_bin_width": float("nan")}},
        {"report": {"histogram_bin_width": float("inf")}},
        {"training": {"learning_rate": float("inf")}},
        {"training": {"l2_penalty": float("inf")}},
        {"training": {"learning_rate": 10**400}},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("target_week: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    for text in ("42\n", "0\n", "[]\n"):
        scalar.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(scalar)


def test_empty_file_gives_defaults(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_config(empty) == RunConfig()


def test_rules_reflect_config():
    cfg = config_from_dict({"salary_cap": 55_000})
    assert cfg.salary_cap == 55_000


def test_float_field_takes_an_int_and_optional_path_takes_none():
    cfg = config_from_dict({"training": {"learning_rate": 1}, "exclusions_file": None})
    assert cfg.training.learning_rate == 1
    assert cfg.exclusions_file is None


@pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("1E+3", 1e3), ("1.0e12", 1e12)])
def test_exponent_floats_load_as_floats(tmp_path, text, value):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"training:\n  learning_rate: {text}\n", encoding="utf-8")
    assert load_config(path).training.learning_rate == value


def test_quoted_exponent_is_still_a_string(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("training:\n  learning_rate: '1e-3'\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="training.learning_rate must be a number, got '1e-3'"):
        load_config(path)


def test_defaults_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    save_config(RunConfig(), path)
    assert load_config(path) == RunConfig()


def test_merge_key_then_override_loads(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "training:\n  <<: {patience: 3, max_epochs: 9}\n  patience: 4\n", encoding="utf-8"
    )
    training = load_config(path).training
    assert (training.patience, training.max_epochs) == (4, 9)


def test_unhashable_key_is_left_to_pyyaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("? [n_models]\n: 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="(?s)cannot parse .*found unhashable key"):
        load_config(path)


@pytest.mark.parametrize("value", [None, {}])
def test_null_or_empty_section_gives_defaults(value):
    assert config_from_dict({"training": value}) == RunConfig()


def test_range_errors_name_the_dotted_key():
    with pytest.raises(ConfigError, match=r"^report\.ci_level must be in \(0, 1\), got 1\.5$"):
        config_from_dict({"report": {"ci_level": 1.5}})
    with pytest.raises(
        ConfigError, match="^random_baseline.min_salary must be <= salary_cap 40000, got 45000$"
    ):
        config_from_dict({"salary_cap": 40_000})


def test_overrides_are_checked_like_file_values():
    assert config_from_dict({"n_models": 5}, {"n_models": 7}).n_models == 7
    with pytest.raises(ConfigError, match="n_models must be an integer, got '7'"):
        config_from_dict({}, {"n_models": "7"})
    with pytest.raises(ConfigError, match="output_dir must be non-empty, got ''"):
        config_from_dict({}, {"output_dir": ""})
