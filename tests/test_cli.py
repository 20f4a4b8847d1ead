"""End-to-end CLI runs on the committed fixture season, plus exit codes."""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from dfslineup import ensemble, pipeline, stats
from dfslineup.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from dfslineup.data import load_player_weeks
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

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("random_baseline", "count", 0),
            ("random_baseline", "count", 4),
            ("report", "bootstrap_resamples", 0),
        ],
    )
    def test_too_small_population_settings(self, tmp_path, capsys, section, key, value):
        base = yaml.safe_load(write_config(tmp_path).read_text(encoding="utf-8"))
        config = write_config(tmp_path, **{section: {**base[section], key: value}})
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
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
        ],
    )
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n_models, workers", [(N_MODELS, 1), (9, 2)])
    def test_divergence_twice_exits_four(self, tmp_path, capsys, n_models, workers):
        # Every member diverges, with its first seed and with its retry seed.
        # Nine models make two batches, which go to a pool of two processes.
        config = write_config(
            tmp_path,
            n_models=n_models,
            workers=workers,
            training={"learning_rate": 1.0e12, "momentum": 0.99},
        )
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_NUMERIC
        assert "error: model 0 diverged twice; giving up\n" == capsys.readouterr().err

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


def test_traced_names_exist():
    """Every name the benchmark's tracer patches is still on its module, so a
    rename cannot silently break a traced run."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [n for n in tracing.PIPELINE_NAMES if not hasattr(pipeline, n)] == []
    assert [n for n in tracing.STATS_NAMES if not hasattr(stats, n)] == []
