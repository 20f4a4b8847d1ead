"""Run-configuration parsing, validation, and round-tripping."""

from __future__ import annotations

import pytest

from dfslineup.config import (
    RandomBaselineConfig,
    ReportConfig,
    RunConfig,
    config_from_dict,
    load_config,
    save_config,
)
from dfslineup.errors import ConfigError
from dfslineup.network import TrainingConfig


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
    scalar.write_text("42\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(scalar)


def test_empty_file_gives_defaults(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_config(empty) == RunConfig()


def test_rules_reflect_config():
    cfg = config_from_dict({"salary_cap": 55_000})
    assert cfg.rules().salary_cap == 55_000
