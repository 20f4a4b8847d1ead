"""End-to-end CLI runs on the committed fixture season, plus exit codes."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfslineup import ensemble, errors, pipeline, stats
from dfslineup.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from dfslineup.config import RULES, RunConfig
from dfslineup.data import POSITIONS, VALUE_COLUMNS, load_player_weeks
from dfslineup.optimizer import Lineup

from .conftest import FIXTURES
from .oracles import validate_lineup

N_MODELS = 4
SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, **overrides):
    cfg = {
        "players_csv": str(FIXTURES / "season.csv"),
        "contest_results_csv": str(FIXTURES / "contest_results.csv"),
        "output_dir": str(tmp_path / "out"),
        "target_week": 8,
        "n_models": N_MODELS,
        "master_seed": 20180901,
        "training": {"max_epochs": 120, "patience": 10},
        "random_baseline": {"count": 300, "min_salary": 45_000},
        "report": {"bootstrap_resamples": 500},
    }
    cfg.update(overrides)
    path = tmp_path / "dfslineup.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


TOO_SMALL = [
    ("random_baseline", "count", 0),
    ("random_baseline", "count", 4),
    ("report", "bootstrap_resamples", 0),
]
# Config values refused by type or by range; the error names the dotted key.
BAD_VALUES = [
    ("target_week", "8"),
    ("n_models", True),
    ("master_seed", 1.5),
    ("output_dir", 5),
    ("report.ci_level", "0.9"),
    ("report.histogram_bin_width", True),
    ("training", 5),
    ("training.patience", "x"),
    ("training.hidden_units", 0),
    ("training.learning_rate", -1.0),
    ("training.momentum", 1.0),
    ("training.l2_penalty", -0.1),
    ("training.patience", 0),
    ("training.max_epochs", 0),
    ("training.train_fraction", 1.0),
    ("training.learning_rate", float("inf")),
    ("training.l2_penalty", float("inf")),
    ("training.momentum", float("-inf")),
    ("report.histogram_bin_width", float("nan")),
    ("report.histogram_bin_width", float("inf")),
    pytest.param("report.ci_level", 10**400, id="report.ci_level-10**400"),
    ("target_week", 18),
    ("n_models", 0),
    ("workers", 0),
    ("output_dir", ""),
    ("report.ci_level", 1.5),
    ("report.histogram_bin_width", 0),
    ("random_baseline.min_salary", 50_001),  # above the default salary_cap
]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete ingest -> report run shared by the inspection tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config = write_config(tmp_path)
    for command in ("ingest", "predict", "optimize", "validate"):
        assert main([command, "--config", str(config)]) == EXIT_OK
    return tmp_path / "out", config


class TestPipelineArtifacts:
    def test_ingest_outputs(self, full_run):
        out, _ = full_run
        with np.load(out / "train_window.npz") as blob:
            assert blob["features"].shape[1] == 43
            assert blob["features"].shape[0] == len(blob["targets"]) > 100
        with np.load(out / "predict_window.npz") as blob:
            n = blob["features"].shape[0]
            assert len(blob["salary"]) == len(blob["position"]) == n > 100
        rows = (out / "eligibility.csv").read_text().strip().splitlines()
        assert rows[0] == "player_id,eligible_train,eligible_predict,excluded"
        assert len(rows) == 301  # every fixture player is reported

    def test_prediction_outputs(self, full_run):
        out, _ = full_run
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 100
        for row in rows[:20]:
            lo, mid, hi = float(row["ci_low"]), float(row["mean_fpts"]), float(row["ci_high"])
            assert lo <= mid <= hi
        with np.load(out / "samples.npz") as blob:
            assert blob["samples"].shape == (N_MODELS, len(rows))
            assert blob["samples"].dtype == np.float64

    def test_lineup_is_valid_against_raw_season(self, full_run, season_table):
        out, _ = full_run
        info = json.loads((out / "lineup.json").read_text())
        assert len(info["players"]) == 9
        assert 1 <= info["modal_count"] <= N_MODELS
        assert info["n_models"] == N_MODELS
        assert info["ci_low"] <= info["predicted_mean"] <= info["ci_high"]
        lineup = Lineup(
            players=tuple(info["players"]),
            flex_config=tuple(info["flex_config"]),
            predicted_fpts=info["predicted_mean"],
        )
        ids, week = season_table.player_ids(), season_table.at_week(8)
        rows = [j for j, present in enumerate(week["present"]) if present]
        salary = {ids[j]: int(week["salary"][j]) for j in rows}
        position = {ids[j]: week["position"][j] for j in rows}
        assert validate_lineup(lineup, 50_000, salary, position) == []
        assert info["total_salary"] == sum(salary[p] for p in info["players"])
        assert sorted(pid for _, pid in info["slots"]) == sorted(info["players"])

    def test_validation_report_fields(self, full_run):
        out, _ = full_run
        report = json.loads((out / "validation_report.json").read_text())
        assert report["status"] == "valid"
        assert report["week"] == 8
        for key in ("actual_fpts", "predicted_fpts", "predicted_ci", "random", "real_world"):
            assert key in report
        for pop in (report["random"], report["real_world"]):
            assert {"n", "mean_fpts", "percentile", "percentile_ci", "ks_statistic"} <= set(pop)
        assert report["random"]["n"] == 300
        assert "welch_t" in report and "cohens_d" in report

    def test_report_rendering(self, full_run, capsys):
        out, config = full_run
        assert main(["report", "--config", str(config)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Week 8 lineup validation" in text
        assert "Random lineups" in text and "Real-world users" in text
        info = json.loads((out / "lineup.json").read_text())
        assert f"modal lineup: {info['modal_count']} of {N_MODELS} models" in text
        assert (out / "report.txt").read_text() == text

    def test_rerun_is_byte_identical(self, full_run, tmp_path):
        out, config = full_run
        other = tmp_path / "out2"
        for command in ("ingest", "predict", "optimize"):
            assert (
                main([command, "--config", str(config), "--output-dir", str(other)])
                == EXIT_OK
            )
        for name in ("train_window.npz", "predictions.csv", "samples.npz", "lineup.json"):
            assert (other / name).read_bytes() == (out / name).read_bytes()

    def test_csv_numbers_are_ints_or_float_reprs(self, full_run):
        """Every numeric cell of every CSV artifact is an int or the repr()
        of its float, so a reader gets back the very float that was written."""
        out, _ = full_run
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "boxplot.csv", "eligibility.csv", "histograms.csv", "lineup.csv",
            "percentiles.csv", "predictions.csv",
        ]
        floats = 0
        for name in names:
            for row in list(csv.reader((out / name).read_text().splitlines()))[1:]:
                for cell in row:
                    if cell.lstrip("-").isdigit():
                        continue  # an int
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # an id, a position or a label
                    assert cell == repr(value), (name, row)
                    floats += 1
        assert floats > 100

    def test_ids_with_comma_and_quote_round_trip(self, full_run, tmp_path):
        """An id holding a comma and a quote stays one cell in every CSV
        artifact.  The suffix keeps the id order, and so the lineup."""
        suffix = ', "x"'
        season = _edited_season(
            tmp_path, edit=lambda row: {**row, "player_id": row["player_id"] + suffix}
        )
        config = write_config(tmp_path, players_csv=str(season))
        for command in ("ingest", "predict", "optimize", "validate"):
            assert main([command, "--config", str(config)]) == EXIT_OK
        out = tmp_path / "out"
        tables = {
            path.name: list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
            for path in out.glob("*.csv")
        }
        assert len(tables) == 6
        for name, (header, *rows) in tables.items():
            assert rows and all(len(row) == len(header) for row in rows), name
        ids = [row[0] for row in tables["eligibility.csv"][1:]]
        assert len(ids) == 300 and all(pid.endswith(suffix) for pid in ids)
        plain = json.loads((full_run[0] / "lineup.json").read_text())["players"]
        players = json.loads((out / "lineup.json").read_text())["players"]
        assert players == [pid + suffix for pid in plain]

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        row = (np.float64(0.1), np.float32(0.1), -0.0, np.int64(7), np.str_("QB"), "")
        pipeline._write_csv(path, "a,b,c,d,e,f", [row, (1.5, 2, True, None, "x", 1e300)])
        assert path.read_text(encoding="utf-8") == (
            "a,b,c,d,e,f\n"
            f"0.1,{float(np.float32(0.1))!r},-0.0,7,QB,\n"
            "1.5,2,True,None,x,1e+300\n"
        )

    def test_validate_and_report_without_contest_file(self, full_run, tmp_path, capsys):
        # Only the random population: no real-world summary and no comparison.
        out, _ = full_run
        for name in ("lineup.json", "samples.npz"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        config = write_config(tmp_path, contest_results_csv=None, output_dir=str(tmp_path))
        written = ("validation_report.json", "percentiles.csv", "boxplot.csv",
                   "histograms.csv", "report.txt")
        runs = []
        for _ in range(2):
            for command in ("validate", "report"):
                assert main([command, "--config", str(config)]) == EXIT_OK
            runs.append({name: (tmp_path / name).read_bytes() for name in written})
        assert runs[0] == runs[1]

        report = json.loads(runs[0]["validation_report.json"])
        assert report["status"] == "valid"
        assert report["random"]["n"] == 300
        assert {"real_world", "welch_t", "cohens_d"}.isdisjoint(report)
        for name in ("percentiles.csv", "boxplot.csv"):
            rows = runs[0][name].decode().strip().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == ["random"]
        text = runs[0]["report.txt"].decode()
        assert "Random lineups" in text
        assert "Real-world users" not in text and "real vs random" not in text
        assert capsys.readouterr().out == text + text

    def test_random_summary_ignores_the_contest_file(self, full_run, season_table, tmp_path):
        # A lineup scoring inside the random population, so its percentile CI
        # is not pinned at [100, 100]: per slot, a week-8 player near the 40th
        # percentile of that position's actual FPTS.
        out, _ = full_run
        with np.load(out / "samples.npz") as blob:
            ids = [str(p) for p in blob["player_ids"]]
        week = season_table.at_week(8)
        row = {pid: j for j, pid in enumerate(season_table.player_ids())}
        players = []
        for pos, k in (("QB", 1), ("RB", 2), ("WR", 3), ("TE", 2), ("DST", 1)):
            pool = sorted(
                (week["fpts"][row[pid]], pid) for pid in ids
                if week["position"][row[pid]] == pos and week["fpts"][row[pid]] > 0
            )
            middle = int(0.4 * len(pool))
            players += [pid for _, pid in pool[middle : middle + k]]
        lineup = json.loads((out / "lineup.json").read_text())
        lineup.update(players=sorted(players), flex_config=[2, 3, 2])

        rows = {}
        for contest in (str(FIXTURES / "contest_results.csv"), None):
            run = tmp_path / str(contest is None)
            run.mkdir()
            (run / "samples.npz").write_bytes((out / "samples.npz").read_bytes())
            (run / "lineup.json").write_text(json.dumps(lineup), encoding="utf-8")
            # Enough lineups and resamples that a CI bound is rarely shared
            # by two bootstrap streams.
            config = write_config(
                run, contest_results_csv=contest, output_dir=str(run),
                random_baseline={"count": 4000, "min_salary": 45_000},
                report={"bootstrap_resamples": 1000},
            )
            assert main(["validate", "--config", str(config)]) == EXIT_OK
            report = json.loads((run / "validation_report.json").read_text())
            rows[contest] = [json.dumps(report["random"], sort_keys=True)] + [
                line for name in ("percentiles.csv", "boxplot.csv")
                for line in (run / name).read_text().splitlines()
                if line.startswith("random,")
            ]
        with_contest, without = rows.values()
        assert len(with_contest) == 3
        assert with_contest == without
        lo, hi = json.loads(without[0])["percentile_ci"]
        assert 0.0 < lo < hi < 100.0

    @pytest.mark.parametrize("command", ["config-init", "report"])
    def test_light_commands_do_not_load_numpy(self, full_run, tmp_path, command):
        _, config = full_run
        if command == "config-init":
            config = tmp_path / "new.yaml"
        code = (
            "import sys\n"
            "from dfslineup.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules)\n"
            "sys.exit(status)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, command, "--config", str(config)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    def test_serial_stages_do_not_load_multiprocessing(self, tmp_path):
        """At ``workers: 1`` no stage imports the process pool's machinery."""
        config = write_config(tmp_path, workers=1)
        code = (
            "import sys\n"
            "from dfslineup.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print('multiprocessing' in sys.modules)\n"
            "sys.exit(status)\n"
        )
        for command in ("ingest", "predict", "optimize", "validate"):
            result = subprocess.run(
                [sys.executable, "-c", code, command, "--config", str(config)],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == EXIT_OK, result.stderr
            assert result.stdout.splitlines()[-1] == "False", command

    def test_stages_do_not_load_numpy_ma(self, tmp_path):
        """Quantiles are taken without ``np.quantile`` and repeated season keys
        are found without ``np.unique``; both import numpy.ma."""
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        code = (
            "import sys\n"
            "from dfslineup.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(status)\n"
        )
        for command in ("ingest", "predict", "optimize", "validate"):
            result = subprocess.run(
                [sys.executable, "-c", code, command, "--config", str(config)],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == EXIT_OK, result.stderr
            assert result.stdout.splitlines()[-1] == "False", command


class TestOptions:
    def test_config_init(self, tmp_path, capsys):
        path = tmp_path / "new.yaml"
        assert main(["config-init", "--config", str(path)]) == EXIT_OK
        assert yaml.safe_load(path.read_text())["n_models"] == 200
        assert main(["config-init", "--config", str(path)]) == EXIT_INPUT
        assert main(["config-init", "--config", str(path), "--force"]) == EXIT_OK

    def test_seed_override_changes_predictions(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_OK
        first = (out / "predictions.csv").read_bytes()
        assert main(["predict", "--config", str(config), "--seed", "99"]) == EXIT_OK
        assert (out / "predictions.csv").read_bytes() != first

    def test_predict_runs_one_forward_pass(self, tmp_path, monkeypatch):
        forward = ensemble.predict_batch
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(ensemble, "predict_batch", counted)
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_OK
        assert len(calls) == N_MODELS

    def test_overrides_are_checked_once(self, tmp_path, monkeypatch):
        checked, validate = [], RunConfig.validate
        monkeypatch.setattr(RunConfig, "validate", lambda c: checked.append(c) or validate(c))
        config = write_config(tmp_path)
        argv = ["--config", str(config), "--seed", "3", "--n-models", "2"]
        assert main(["ingest", *argv, "--output-dir", str(tmp_path / "other")]) == EXIT_OK
        assert [(c.master_seed, c.n_models, c.output_dir) for c in checked] == [
            (3, 2, str(tmp_path / "other"))
        ]

    def test_seed_override_changes_random_population(self, full_run, tmp_path):
        out, config = full_run
        for name in ("lineup.json", "samples.npz"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        argv = ["validate", "--config", str(config), "--output-dir", str(tmp_path)]
        reports = []
        for extra in ([], ["--seed", "99"]):
            assert main(argv + extra) == EXIT_OK
            reports.append(json.loads((tmp_path / "validation_report.json").read_text()))
        first, second = (r["random"] for r in reports)
        assert first["mean_fpts"] != second["mean_fpts"]
        assert first["boxplot"] != second["boxplot"]

    def test_n_models_override(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config), "--n-models", "2"]) == EXIT_OK
        with np.load(tmp_path / "out" / "samples.npz") as blob:
            assert blob["samples"].shape[0] == 2

    def test_exclusions_remove_players(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        with np.load(tmp_path / "out" / "predict_window.npz") as blob:
            victim = str(blob["player_ids"][0])
            n_before = len(blob["player_ids"])
        exclude = tmp_path / "exclude.txt"
        exclude.write_text(victim + "\n", encoding="utf-8")
        config2 = write_config(tmp_path, exclusions_file=str(exclude))
        assert main(["ingest", "--config", str(config2)]) == EXIT_OK
        with np.load(tmp_path / "out" / "predict_window.npz") as blob:
            assert victim not in set(map(str, blob["player_ids"]))
            assert len(blob["player_ids"]) == n_before - 1


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.yaml")]) == EXIT_INPUT

    def test_invalid_config_value(self, tmp_path):
        config = write_config(tmp_path, target_week=3)
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT

    @pytest.mark.parametrize("section, key, value", TOO_SMALL)
    def test_too_small_population_settings(self, tmp_path, capsys, section, key, value):
        base = yaml.safe_load(write_config(tmp_path).read_text(encoding="utf-8"))
        config = write_config(tmp_path, **{section: {**base[section], key: value}})
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_mistyped_or_out_of_range_value(self, tmp_path, capsys, key, value):
        base = yaml.safe_load(write_config(tmp_path).read_text(encoding="utf-8"))
        section, _, name = key.rpartition(".")
        if section:
            base[section] = {**base.get(section, {}), name: value}
        else:
            base[name] = value
        config = write_config(tmp_path, **base)
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert key in capsys.readouterr().err

    def test_every_rule_has_a_bad_value(self):
        keys = {getattr(case, "values", case)[0] for case in BAD_VALUES}
        keys |= {f"{section}.{key}" for section, key, _ in TOO_SMALL}
        assert {key for key, _, _ in RULES} <= keys

    @pytest.mark.parametrize(
        "flag, value, key", [("--n-models", "0", "n_models"), ("--output-dir", "", "output_dir")]
    )
    def test_out_of_range_override(self, tmp_path, capsys, monkeypatch, flag, value, key):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config), flag, value]) == EXIT_INPUT
        assert f"{key} must be" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dfslineup.yaml"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["n_models: 5", "n_models: 7"], "key 'n_models' repeated on lines 2 and 3"),
            (
                ["training: {patience: 3}", "n_models: 2", "training:", "  max_epochs: 9"],
                "key 'training' repeated on lines 2 and 4",
            ),
            (
                ["report: {ci_level: 0.9, ci_level: 0.8}"],
                "key 'ci_level' repeated on lines 2 and 2",
            ),
        ],
        ids=["top-level", "section", "flow-mapping"],
    )
    def test_repeated_key(self, tmp_path, capsys, lines, message):
        config = tmp_path / "repeated.yaml"
        config.write_text(
            "\n".join([f"output_dir: {tmp_path / 'out'}", *lines]) + "\n", encoding="utf-8"
        )
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert f"cannot parse {config}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["ingest", "predict", "optimize", "validate", "report"])
    def test_infinite_learning_rate_stops_every_stage(self, tmp_path, capsys, stage):
        # Without the finiteness check, predict took it and exited 4 ("diverged").
        config = write_config(tmp_path, training={"learning_rate": float("inf")})
        assert "learning_rate: .inf" in config.read_text(encoding="utf-8")
        assert main([stage, "--config", str(config)]) == EXIT_INPUT
        assert "training.learning_rate must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [1e-300, 1e-320, 1.2e308])
    def test_tiny_histogram_bin_width(self, full_run, tmp_path, capsys, monkeypatch, width):
        _copy_upstream(full_run, tmp_path / "out")
        config = write_config(
            tmp_path, report={"bootstrap_resamples": 500, "histogram_bin_width": width}
        )
        drawn, draw = [], stats.random_population
        monkeypatch.setattr(stats, "random_population", lambda *a: drawn.append(a) or draw(*a))
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        assert "report.histogram_bin_width" in capsys.readouterr().err
        assert drawn == []  # refused before the random population is drawn
        assert not (tmp_path / "out" / "validation_report.json").exists()

    def test_removed_two_team_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, require_two_teams=False)
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert "require_two_teams" in capsys.readouterr().err

    def test_removed_random_seed_key_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, random_baseline={"count": 300, "min_salary": 45_000, "seed": 7}
        )
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert "['seed']" in capsys.readouterr().err

    def test_non_finite_season_value(self, tmp_path, capsys):
        target = tmp_path / "season_nan.csv"
        lines = (FIXTURES / "season.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        spread = header.index("spread")
        row = lines[1].split(",")
        row[spread] = "nan"
        lines[1] = ",".join(row)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, players_csv=str(target))
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert "(line 2, column 'spread')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, raw, message",
        [
            ("salary", "9" * 20, f"salary {'9' * 20} beyond the int64 range"),
            ("point_diff", "9" * 401, f"cannot parse '{'9' * 401}'"),
        ],
        ids=["salary", "point_diff"],
    )
    def test_season_integer_out_of_range(self, tmp_path, capsys, column, raw, message):
        target = tmp_path / "season_huge.csv"
        lines = (FIXTURES / "season.csv").read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = raw
        lines[1] = ",".join(row)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, players_csv=str(target))
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {target}: {message} (line 2, column {column!r})\n"
        )

    def test_malformed_season_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1\n", encoding="utf-8")
        config = write_config(tmp_path, players_csv=str(bad))
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT

    def test_predict_before_ingest(self, tmp_path):
        config = write_config(tmp_path, output_dir=str(tmp_path / "fresh"))
        assert main(["predict", "--config", str(config)]) == EXIT_INPUT

    def test_infeasible_cap_exits_three(self, tmp_path):
        config = write_config(
            tmp_path,
            salary_cap=18_000,
            random_baseline={"count": 10, "min_salary": 0},
        )
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_OK
        assert main(["optimize", "--config", str(config)]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("n_models, workers", [(N_MODELS, 1), (ensemble.B + 1, 2)])
    def test_divergence_twice_exits_four(self, tmp_path, capsys, n_models, workers):
        # Every member diverges, with its first seed and with its retry seed.
        # B + 1 models make two batches, which go to a pool of two processes.
        # Training raises no RuntimeWarning, which this suite makes an error.
        config = write_config(
            tmp_path,
            n_models=n_models,
            workers=workers,
            training={"learning_rate": 1.0e12, "momentum": 0.99},
        )
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_NUMERIC
        assert "error: model 0 diverged twice; giving up\n" == capsys.readouterr().err

    def test_diverging_predict_prints_only_its_error(self, tmp_path):
        """Overflow on the way to a divergence prints no numpy warning."""
        config = write_config(tmp_path, n_models=8, training={"learning_rate": 1.0e9})
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        result = subprocess.run(
            [sys.executable, "-m", "dfslineup.cli", "predict", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == EXIT_NUMERIC
        assert result.stderr == "error: model 0 diverged twice; giving up\n"

    @pytest.mark.parametrize(
        "learning_rate, status, err",
        [(1.0e2, EXIT_OK, ""), (1.0e3, EXIT_NUMERIC, "error: model 0 diverged twice; giving up\n")],
        ids=["1e2-trains", "1e3-diverges"],
    )
    def test_float32_learning_rate_range(self, tmp_path, capsys, learning_rate, status, err):
        # float64 kept every member at its initial weights from 1e3 to 1e9 and
        # exited 0; float32 overflows to a non-finite loss there.
        config = write_config(tmp_path, n_models=8, training={"learning_rate": learning_rate})
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == status
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "rows, nonzero",
        [([], 0), (["1,130.5", "2,120.0", "3,0", "4,101.25"], 3)],
        ids=["header-only", "three-scores"],
    )
    def test_contest_file_with_too_few_scores(self, full_run, tmp_path, capsys, rows, nonzero):
        out, _ = full_run
        for name in ("lineup.json", "samples.npz"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        contest = tmp_path / "tiny_contest.csv"
        contest.write_text("\n".join(["user_rank,fpts", *rows]) + "\n", encoding="utf-8")
        config = write_config(tmp_path, contest_results_csv=str(contest), output_dir=str(tmp_path))
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{contest}: {nonzero} nonzero fpts score" in err
        assert "real-world population needs at least 5" in err
        assert "Warning" not in err and "pvals" not in err

    def test_contest_file_with_equal_scores(self, full_run, tmp_path, capsys):
        out, _ = full_run
        for name in ("lineup.json", "samples.npz"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        contest = tmp_path / "flat_contest.csv"
        rows = [f"{r},100" for r in range(1, 7)]
        contest.write_text("\n".join(["user_rank,fpts", *rows]) + "\n", encoding="utf-8")
        config = write_config(tmp_path, contest_results_csv=str(contest), output_dir=str(tmp_path))
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{contest}: all 6 nonzero fpts scores are 100.0" in err
        assert "real-world population" in err and "zero variance" not in err

    @staticmethod
    def _spoiled_input(full_run, tmp_path, which, spoil):
        """Config whose season or contest file has ``spoil(line 2 bytes)`` as its
        line 2, and the stage that reads that file first."""
        source = FIXTURES / ("season.csv" if which == "season" else "contest_results.csv")
        lines = source.read_bytes().splitlines()
        lines[1] = spoil(lines[1])
        target = tmp_path / f"spoiled_{which}.csv"
        target.write_bytes(b"\n".join(lines) + b"\n")
        if which == "season":
            return target, write_config(tmp_path, players_csv=str(target)), "ingest"
        out, _ = full_run
        for name in ("lineup.json", "samples.npz"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        config = write_config(tmp_path, contest_results_csv=str(target), output_dir=str(tmp_path))
        return target, config, "validate"

    @pytest.mark.parametrize("which", ["season", "contest"])
    def test_oversized_csv_field(self, full_run, tmp_path, capsys, which):
        # The csv module refuses a field over 131,072 characters.
        target, config, stage = self._spoiled_input(
            full_run, tmp_path, which, lambda line: b"9" * 140_000 + line
        )
        assert main([stage, "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: field larger than field limit")
        assert err.endswith("(line 2)\n")

    @pytest.mark.parametrize("which", ["season", "contest"])
    def test_non_utf8_csv_byte(self, full_run, tmp_path, capsys, which):
        target, config, stage = self._spoiled_input(
            full_run, tmp_path, which, lambda line: line[:3] + b"\xe9" + line[3:]
        )
        assert main([stage, "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {target}: not UTF-8 text (byte 0xe9: invalid continuation byte)\n"
        )

    def test_non_utf8_config_file(self, tmp_path, capsys):
        config = tmp_path / "latin1.yaml"
        config.write_bytes(write_config(tmp_path).read_bytes() + b"# caf\xe9\n")
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: cannot parse {config}: not UTF-8 text (byte 0xe9: invalid "
            "continuation byte)\n"
        )

    def test_non_utf8_exclusions_file(self, tmp_path, capsys):
        exclusions = tmp_path / "exclusions.txt"
        exclusions.write_bytes(b"QB001\nRB\xff01\n")
        config = write_config(tmp_path, exclusions_file=str(exclusions))
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {exclusions}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        "key, stage",
        [
            ("players_csv", "ingest"),
            ("exclusions_file", "ingest"),
            ("contest_results_csv", "validate"),
            ("output_dir", "ingest"),
        ],
    )
    def test_misplaced_path(self, full_run, tmp_path, capsys, key, stage):
        # Each file setting names a directory, and output_dir names a file.
        misplaced = tmp_path / "misplaced"
        if key == "output_dir":
            misplaced.write_text("", encoding="utf-8")
        else:
            misplaced.mkdir()
        if stage == "validate":
            _copy_upstream(full_run, tmp_path / "out")
        config = write_config(tmp_path, **{key: str(misplaced)})
        assert main([stage, "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(misplaced) in err

    def test_program_fault_is_not_an_exit_code(self, tmp_path, monkeypatch):
        # Only toolkit and OS errors become exit codes: a bug keeps its traceback.
        def broken(cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(pipeline, "cmd_ingest", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["ingest", "--config", str(write_config(tmp_path))])

    def test_unreachable_salary_band_exits_three(self, tmp_path):
        # Salaries are multiples of 100, so no lineup total lands in this band.
        config = write_config(
            tmp_path,
            salary_cap=49_950,
            random_baseline={"count": 10, "min_salary": 49_901},
        )
        for command in ("ingest", "predict", "optimize"):
            assert main([command, "--config", str(config)]) == EXIT_OK
        assert main(["validate", "--config", str(config)]) == EXIT_INFEASIBLE

    def test_cap_beyond_any_lineup(self, tmp_path):
        # The budget axes stop at what the pool can spend, not at the cap.
        config = write_config(tmp_path, salary_cap=10**30)
        for command in ("ingest", "predict", "optimize", "validate"):
            assert main([command, "--config", str(config)]) == EXIT_OK


def test_every_error_has_one_family():
    """Each toolkit error derives from exactly one family, which sets its
    exit code."""
    families = (errors.InputError, errors.InfeasibleError, errors.NumericError)
    concrete = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.DFSLineupError)
        and cls is not errors.DFSLineupError and cls not in families
    ]
    assert concrete
    for cls in concrete:
        assert sum(issubclass(cls, f) for f in families) == 1, cls
        assert cls.exit_code in {EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NUMERIC}, cls
    assert [f.exit_code for f in families] == [2, 3, 4]


def _copy_upstream(full_run, out):
    """Put the shared run's lineup.json and samples.npz into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("lineup.json", "samples.npz"):
        (out / name).write_bytes((full_run[0] / name).read_bytes())


def _edited_season(tmp_path, keep=lambda row: True, edit=lambda row: row):
    """A copy of the fixture season holding ``edit(row)`` for each body row
    that ``keep`` accepts; rows are dicts of CSV fields."""
    with open(FIXTURES / "season.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, [edit(r) for r in reader if keep(r)]
    target = tmp_path / "season_edited.csv"
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return target


class TestInputChecks:
    def test_contest_row_error_names_the_file(self, full_run, tmp_path, capsys):
        _copy_upstream(full_run, tmp_path)
        contest = tmp_path / "bad_contest.csv"
        contest.write_text("user_rank,fpts\n1,130.5\n2,abc\n", encoding="utf-8")
        config = write_config(tmp_path, contest_results_csv=str(contest), output_dir=str(tmp_path))
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {contest}: cannot parse 'abc' (line 3, column 'fpts')\n"
        )

    @pytest.mark.parametrize(
        "present, missing, stage",
        [((), "lineup.json", "optimize"), (("lineup.json",), "samples.npz", "predict")],
    )
    def test_validate_checks_upstream_artifacts_before_the_season(
        self, full_run, tmp_path, capsys, present, missing, stage
    ):
        out = tmp_path / "out"
        out.mkdir()
        for name in present:
            (out / name).write_bytes((full_run[0] / name).read_bytes())
        # A season the parse would refuse: reaching it first would say so.
        config = write_config(tmp_path, players_csv=str(tmp_path / "no_season.csv"))
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {out / missing} not found; run `{stage}` first\n"
        )

    @pytest.mark.parametrize(
        "keep, message",
        [
            (lambda r: r["week"] != "8",
             "week 8: prediction window 5 has no eligible player that is not excluded"),
            (lambda r: int(r["week"]) > 3,
             "week 8: training window 4 has 0 eligible player(s); training needs at least 2"),
            (lambda r: r["week"] != "8" or r["position"] != "TE",
             "week 8: the draftable pool is short at TE 0 of 2"),
        ],
        ids=["week-8-absent", "weeks-1-3-absent", "no-week-8-te"],
    )
    def test_ingest_refuses_a_week_it_cannot_serve(self, tmp_path, capsys, keep, message):
        config = write_config(tmp_path, players_csv=str(_edited_season(tmp_path, keep)))
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "train_window.npz").exists()


    def test_random_population_with_equal_scores(self, tmp_path, capsys):
        # Every FPTS is 10.0, so every random lineup scores 90.0.
        season = _edited_season(tmp_path, edit=lambda r: {**r, "fpts": r["fpts"] and "10.0"})
        config = write_config(tmp_path, players_csv=str(season))
        for command in ("ingest", "predict", "optimize"):
            assert main([command, "--config", str(config)]) == EXIT_OK
        assert main(["validate", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: week 8: the random population's 300 lineups all score 90.0\n"
        )
        assert not (tmp_path / "out" / "validation_report.json").exists()


# Season mutations, each a tuple whose first item names it; weeks stop at 9,
# past which no row feeds target week 8.
_WEEKS = st.integers(1, 9)
_SHARES = st.sampled_from([0.05, 0.3, 0.9])
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop-week"), _WEEKS),
    st.tuples(st.just("drop-position-from"), st.sampled_from(POSITIONS), _WEEKS),
    st.tuples(st.just("drop-rows"), _SHARES, st.integers(0, 2**16)),
    st.tuples(
        st.just("blank"),
        st.sampled_from([c for c in VALUE_COLUMNS if c != "home"]),
        _SHARES,
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("undraftable-players"), _SHARES, st.integers(0, 2**16)),
    st.tuples(st.just("undraftable-week"), _WEEKS),
    st.tuples(st.just("zero-fpts"), _WEEKS),
)


def _mutate(rows, mutation):
    """The season rows (dicts of CSV fields) after one mutation."""
    kind, *args = mutation
    if kind == "drop-week":
        return [r for r in rows if int(r["week"]) != args[0]]
    if kind == "drop-position-from":
        pos, week = args
        return [r for r in rows if r["position"] != pos or int(r["week"]) < week]
    if kind == "undraftable-week":
        return [{**r, "draftable": "0"} if int(r["week"]) == args[0] else r for r in rows]
    if kind == "zero-fpts":
        return [{**r, "fpts": "0"} if int(r["week"]) == args[0] else r for r in rows]
    *args, seed = args
    rng = np.random.default_rng(seed)
    if kind == "drop-rows":
        return [r for r in rows if rng.random() >= args[0]]
    if kind == "blank":
        column, share = args
        return [{**r, column: ""} if rng.random() < share else r for r in rows]
    ids = sorted({r["player_id"] for r in rows})
    chosen = {pid for pid in ids if rng.random() < args[0]}
    return [{**r, "draftable": "0"} if r["player_id"] in chosen else r for r in rows]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.lists(_MUTATIONS, min_size=1, max_size=3))
@example([("zero-fpts", 8)])  # no random pool: validate exits 3
def test_mutated_season_exits_cleanly(tmp_path_factory, mutations):
    """A season with weeks, positions or rows missing, optional fields blank,
    players or weeks undraftable, or a week's FPTS zeroed either runs clean
    or stops with exit 2 (ingest, or validate naming the week) or exit 3;
    no exception escapes."""
    tmp_path = tmp_path_factory.mktemp("mutated")
    with open(FIXTURES / "season.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    for mutation in mutations:
        rows = _mutate(rows, mutation)
    season = tmp_path / "season.csv"
    with open(season, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    config = write_config(
        tmp_path,
        players_csv=str(season),
        n_models=2,
        training={"max_epochs": 30, "patience": 5},
        report={"bootstrap_resamples": 100},
    )
    for stage in ("ingest", "predict", "optimize", "validate", "report"):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([stage, "--config", str(config)])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE), (stage, err.getvalue())
        if code == EXIT_INPUT:
            assert stage == "ingest" or (
                stage == "validate" and err.getvalue().startswith("error: week 8: ")
            ), err.getvalue()
        if code != EXIT_OK:
            break


class TestSeasonCache:
    """validate reads ingest's season.npz while the CSV and target week
    match, and parses the CSV again otherwise."""

    @staticmethod
    def _counted_parse(monkeypatch):
        calls = []
        parse = pipeline.load_player_weeks

        def counted(path):
            calls.append(path)
            return parse(path)

        monkeypatch.setattr(pipeline, "load_player_weeks", counted)
        return calls

    def test_unchanged_season_is_not_parsed_again(self, full_run, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        _copy_upstream(full_run, tmp_path / "out")
        calls = self._counted_parse(monkeypatch)
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        assert calls == []
        for name in ("validation_report.json", "percentiles.csv", "histograms.csv", "boxplot.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (full_run[0] / name).read_bytes()

    def test_season_rewritten_after_ingest_is_read_again(self, full_run, tmp_path, monkeypatch):
        season = _edited_season(tmp_path)
        config = write_config(tmp_path, players_csv=str(season))
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        _copy_upstream(full_run, tmp_path / "out")
        # Week 8's actuals change after ingest: every one of them is blanked.
        _edited_season(tmp_path, edit=lambda r: {**r, "fpts": ""} if r["week"] == "8" else r)
        calls = self._counted_parse(monkeypatch)
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        assert calls == [str(season)]
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["status"] == "invalid_week"
        assert len(report["missing_actuals"]) == 9

    def test_changed_target_week_parses_again(self, full_run, tmp_path, monkeypatch):
        assert main(["ingest", "--config", str(write_config(tmp_path))]) == EXIT_OK
        _copy_upstream(full_run, tmp_path / "out")
        calls = self._counted_parse(monkeypatch)
        config = write_config(tmp_path, target_week=9)
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        assert len(calls) == 1
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["week"] == 9


class TestInvalidWeek:
    def test_missing_actuals_reported(self, tmp_path, capsys):
        target = tmp_path / "season_blank8.csv"
        with open(FIXTURES / "season.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        week_idx, fpts_idx = header.index("week"), header.index("fpts")
        for row in body:
            if row[week_idx] == "8":
                row[fpts_idx] = ""
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(body)

        config = write_config(tmp_path, players_csv=str(target))
        for command in ("ingest", "predict", "optimize", "validate"):
            assert main([command, "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
        assert report["status"] == "invalid_week"
        assert len(report["missing_actuals"]) == 9
        assert main(["report", "--config", str(config)]) == EXIT_OK
        assert "invalid_week" in capsys.readouterr().out


def test_traced_names_exist(tmp_path, capsys):
    """Every name the benchmark's tracer patches is still on its module, and
    the stages still call each one through it: a traced run of the five
    stages records a span in every layer and one solve per model."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [n for n in tracing.PIPELINE_NAMES if not hasattr(pipeline, n)] == []
    assert [n for n in tracing.STATS_NAMES if not hasattr(stats, n)] == []

    config = write_config(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for stage in tracing.STAGES:
            assert main([stage, "--config", str(config)]) == EXIT_OK
    capsys.readouterr()
    layers = {*tracing.PIPELINE_NAMES.values(), *tracing.STATS_NAMES.values()}
    spans = Counter(name for name, *_ in tracer.spans)
    assert layers - set(spans) == set()
    # One span per wrapped call.  No exclusions file: load_exclusions is not
    # called, and validate reuses ingest's season.npz instead of parsing.
    assert spans == {
        "data.parse": 1,  # load_player_weeks
        "data.window": 2,  # build_window: train, predict
        "ensemble.train": 1,
        "ensemble.forward": 2,  # sample_matrix, predict_distribution
        "optimizer.solve": N_MODELS,
        "optimizer.select": 2,  # modal_lineup, lineup_prediction_interval
        "stats.sample": 1,
        "stats.summary": 4,  # contest file, comparison, two populations
    }
    metrics = tracing.layer_metrics(tracer)
    assert metrics["optimizer.solves"] == N_MODELS and metrics["network.epochs"] > 0
