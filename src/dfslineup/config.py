"""Declarative run configuration: one YAML file drives every subcommand."""

from __future__ import annotations

import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError, not_utf8


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads YAML 1.2 exponent floats and
    refuses a repeated key.

    YAML 1.1 wants a dot and a signed exponent, so ``1e-3`` and ``1.0e12``
    would load as strings; YAML 1.2 reads both as floats.  PyYAML keeps the
    last of two equal keys, so a second ``training:`` block would drop the
    first one's keys without a word.
    """

    def construct_mapping(self, node, deep=False):
        first_nodes = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # a merge's keys may be overridden
            key = self.construct_object(key_node, deep=deep)
            try:
                first = first_nodes.setdefault(key, key_node)
            except TypeError:  # unhashable: PyYAML's own error names it
                continue
            if first is not key_node:
                raise ConfigError(
                    f"cannot parse {key_node.start_mark.name}: key {key!r} repeated "
                    f"on lines {first.start_mark.line + 1} and {key_node.start_mark.line + 1}"
                )
        return super().construct_mapping(node, deep)


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


# (dotted key, test, rule): RunConfig.validate refuses a value that fails its test.
RULES = (
    ("output_dir", lambda v: v != "", "non-empty"),
    # The training window is built from the four weeks before the target.
    ("target_week", lambda v: 5 <= v <= 17, "in [5, 17]"),
    ("n_models", lambda v: v >= 1, ">= 1"),
    ("workers", lambda v: v >= 1, ">= 1"),
    ("salary_cap", lambda v: v >= 1, ">= 1"),
    ("training.hidden_units", lambda v: v >= 1, ">= 1"),
    ("training.learning_rate", lambda v: v > 0, "> 0"),
    ("training.momentum", lambda v: 0 <= v < 1, "in [0, 1)"),
    ("training.l2_penalty", lambda v: v >= 0, ">= 0"),
    ("training.patience", lambda v: v >= 1, ">= 1"),
    ("training.max_epochs", lambda v: v >= 1, ">= 1"),
    ("training.train_fraction", lambda v: 0 < v < 1, "in (0, 1)"),
    # The KS normality test needs at least 5 random lineups.
    ("random_baseline.count", lambda v: v >= 5, ">= 5"),
    ("report.ci_level", lambda v: 0 < v < 1, "in (0, 1)"),
    ("report.histogram_bin_width", lambda v: v > 0, "> 0"),
    ("report.bootstrap_resamples", lambda v: v >= 1, ">= 1"),
)


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
        for key, ok, rule in RULES:
            value = attrgetter(key)(self)
            if not ok(value):
                raise ConfigError(f"{key} must be {rule}, got {value!r}")
        cap, floor = self.salary_cap, self.random_baseline.min_salary
        if floor > cap:
            raise ConfigError(
                f"random_baseline.min_salary must be <= salary_cap {cap}, got {floor!r}"
            )


def _build(cls, raw: dict, section: str = ""):
    """Build dataclass ``cls`` from the mapping ``raw``, refusing unknown keys
    and values whose type does not match the field's default.

    An int field takes only int; a float field takes a finite int or
    float (no NaN, no infinity, no int beyond the float range); a str field
    takes str, or None where the default is None.  bool is never a number
    here, although Python counts it as an int.  A field whose default is a
    factory is a section, built the same way from a nested mapping; null
    there means every default.
    """
    extra = set(raw) - {f.name for f in fields(cls)}
    if extra:
        where = f"keys in {section!r} section" if section else "config keys"
        raise ConfigError(f"unknown {where}: {sorted(extra, key=str)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        key = f"{section}.{f.name}" if section else f.name
        value, default = raw[f.name], f.default
        if f.default_factory is not MISSING:
            value = {} if value is None else value
            if not isinstance(value, dict):
                raise ConfigError(f"{key!r} section must be a mapping, got {value!r}")
            value = _build(f.default_factory, value, key)
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{key} must be finite, got {value!r}")
        elif not (isinstance(value, str) or (default is None and value is None)):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


def config_from_dict(data: dict, overrides: Optional[dict] = None) -> RunConfig:
    """Type-check and validate ``data``, with ``overrides`` (top-level keys)
    merged over it first."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    cfg = _build(RunConfig, {**data, **(overrides or {})})
    cfg.validate()
    return cfg


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Read the YAML file at ``path`` and build its checked config, with
    ``overrides`` (top-level keys) merged over the file's values."""
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
    return config_from_dict({} if data is None else data, overrides)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(asdict(cfg), fh, sort_keys=False)
