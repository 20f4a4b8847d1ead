"""Declarative run configuration: one YAML file drives every subcommand."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError
from .network import TrainingConfig
from .optimizer import ContestRules


@dataclass
class RandomBaselineConfig:
    count: int = 35_000
    min_salary: int = 45_000


@dataclass
class ReportConfig:
    ci_level: float = 0.95
    histogram_bin_width: float = 2.0
    bootstrap_resamples: int = 10_000


@dataclass
class RunConfig:
    players_csv: str = "players.csv"
    exclusions_file: Optional[str] = None
    contest_results_csv: Optional[str] = None
    output_dir: str = "out"
    target_week: int = 8
    n_models: int = 200
    master_seed: int = 20180901
    workers: int = 1
    training: TrainingConfig = field(default_factory=TrainingConfig)
    salary_cap: int = 50_000
    random_baseline: RandomBaselineConfig = field(default_factory=RandomBaselineConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def validate(self) -> None:
        if self.target_week < 5:
            raise ConfigError(
                f"target_week {self.target_week} < 5: four prior weeks are required"
            )
        if self.target_week > 17:
            raise ConfigError(f"target_week {self.target_week} > 17")
        if self.n_models < 1:
            raise ConfigError(f"n_models must be >= 1, got {self.n_models}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.random_baseline.min_salary > self.salary_cap:
            raise ConfigError(
                f"min_salary {self.random_baseline.min_salary} exceeds "
                f"salary_cap {self.salary_cap}"
            )
        if self.random_baseline.count < 5:
            # The KS normality test needs at least 5 random lineups.
            raise ConfigError(
                f"random_baseline.count must be >= 5, got {self.random_baseline.count}"
            )
        if self.report.bootstrap_resamples < 1:
            raise ConfigError(
                "report.bootstrap_resamples must be >= 1, "
                f"got {self.report.bootstrap_resamples}"
            )
        if not 0.0 < self.report.ci_level < 1.0:
            raise ConfigError(f"ci_level {self.report.ci_level} outside (0, 1)")
        if self.report.histogram_bin_width <= 0:
            raise ConfigError("histogram_bin_width must be positive")

    def rules(self) -> ContestRules:
        return ContestRules(salary_cap=self.salary_cap)

    def to_dict(self) -> dict:
        return asdict(self)


def _coerce_section(data: dict, key: str, cls):
    raw = data.get(key, {})
    if raw is None:
        raw = {}
    known = {f for f in cls.__dataclass_fields__}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown keys in {key!r} section: {sorted(extra)}")
    return cls(**raw)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    sections = {
        "training": TrainingConfig,
        "random_baseline": RandomBaselineConfig,
        "report": ReportConfig,
    }
    kwargs = {}
    for key, cls in sections.items():
        if key in data:
            kwargs[key] = _coerce_section(data, key, cls)
            data.pop(key)
    known = {f for f in RunConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    try:
        cfg = RunConfig(**data, **kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    return config_from_dict(data or {})


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=False)
