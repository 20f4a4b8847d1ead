"""Declarative run configuration: one YAML file drives every subcommand."""

from __future__ import annotations

import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError, not_utf8


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads YAML 1.2 exponent floats.

    YAML 1.1 wants a dot and a signed exponent, so ``1e-3`` and ``1.0e12``
    would load as strings; YAML 1.2 reads both as floats.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass
class TrainingConfig:
    hidden_units: int = 19
    learning_rate: float = 1e-2
    momentum: float = 0.9
    l2_penalty: float = 1e-3
    patience: int = 20
    max_epochs: int = 2000
    train_fraction: float = 0.8


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
        t = self.training
        for key, ok, rule in (
            ("hidden_units", t.hidden_units >= 1, ">= 1"),
            ("learning_rate", t.learning_rate > 0, "> 0"),
            ("momentum", 0 <= t.momentum < 1, "in [0, 1)"),
            ("l2_penalty", t.l2_penalty >= 0, ">= 0"),
            ("patience", t.patience >= 1, ">= 1"),
            ("max_epochs", t.max_epochs >= 1, ">= 1"),
            ("train_fraction", 0 < t.train_fraction < 1, "in (0, 1)"),
        ):
            if not ok:
                raise ConfigError(f"training.{key} must be {rule}, got {getattr(t, key)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _check_types(cls, raw: dict, prefix: str = "") -> None:
    """Reject values whose type does not match the field's default.

    An int field takes only int; a float field takes a finite int or
    float (no NaN, no infinity, no int beyond the float range); a str field
    takes str, or None where the default is None.  bool is never a number
    here, although Python counts it as an int.
    """
    for f in fields(cls):
        if f.name not in raw or f.default is MISSING:
            continue
        value, default = raw[f.name], f.default
        if isinstance(default, int):
            ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
        elif isinstance(default, float):
            ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
            if ok and not abs(value) <= sys.float_info.max:
                ok, kind = False, "finite"
        else:
            ok, kind = isinstance(value, str) or (default is None and value is None), "a string"
        if not ok:
            raise ConfigError(f"{prefix}{f.name} must be {kind}, got {value!r}")


def _coerce_section(data: dict, key: str, cls):
    raw = data.get(key, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{key!r} section must be a mapping, got {raw!r}")
    known = {f for f in cls.__dataclass_fields__}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown keys in {key!r} section: {sorted(extra, key=str)}")
    _check_types(cls, raw, f"{key}.")
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
        raise ConfigError(f"unknown config keys: {sorted(extra, key=str)}")
    _check_types(RunConfig, data)
    cfg = RunConfig(**data, **kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot parse {path}: {not_utf8(exc)}") from None
    return config_from_dict(data or {})


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=False)
