"""Acceptance suite: the end-to-end guarantees the toolkit ships with.

Every test here checks a user-visible promise against an independent oracle
(brute-force enumeration, central finite differences, scipy, or direct
counting) with pinned tolerances.  The committed fixture season and master
seed 20180901 anchor the reproducibility checks.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
import scipy.stats
import yaml

from dfslineup.cli import EXIT_OK, main
from dfslineup.errors import InfeasibleLineupError
from dfslineup.data import build_window
from dfslineup.ensemble import B, sample_matrix, train_ensemble
from dfslineup.config import TrainingConfig
from dfslineup.network import loss_and_gradient, train
from dfslineup.optimizer import Pool, blocks, modal_lineup, optimize_all_flex, solve_flex_configs
from dfslineup.stats import bootstrap_ci, cohens_d, ks_normality, percentile
from dfslineup.stats import random_lineups, welch_t_test

from .conftest import FIXTURES, columns, make_pool, pool_and_row
from .oracles import (
    FLEX_COUNTS,
    brute_force_all_flex,
    brute_force_config,
    random_rows_ok,
    validate_lineup,
)
from .test_network import flat_params, make_dataset, random_net, random_norm, set_flat

MASTER_SEED = 20180901


def _maps(pool):
    salary = {c.player_id: c.salary for c in pool}
    position = {c.player_id: c.position for c in pool}
    return salary, position


class TestSolverExactness:
    """The exact solver returns the brute-force optimum on every random pool."""

    def test_matches_brute_force_on_200_pools_under_10s(self):
        rng = np.random.default_rng(0xACC1)
        start = time.perf_counter()
        for trial in range(200):
            pool = make_pool(rng, int(rng.integers(13, 17)), tie_heavy=trial % 4 == 0)
            cap = int(rng.integers(250, 480)) * 100

            oracle = brute_force_config(pool, FLEX_COUNTS[trial % 3], cap)
            if oracle is None:
                continue
            got = solve_flex_configs(*pool_and_row(pool, cap))[trial % 3]
            assert got.predicted_fpts == pytest.approx(oracle[0], abs=1e-9)
            assert got.players == oracle[1]

            best_value, best_ids = brute_force_all_flex(pool, cap)
            flexed = optimize_all_flex(*pool_and_row(pool, cap))
            assert flexed.predicted_fpts == pytest.approx(best_value, abs=1e-9)
            assert flexed.players == best_ids
        assert time.perf_counter() - start < 10.0


class TestLineupValidity:
    """Everything the package emits is a legal contest entry."""

    def test_solver_lineups_all_validate(self):
        rng = np.random.default_rng(0xACC2)
        salary_cap = 50_000
        for trial in range(100):
            pool = make_pool(rng, int(rng.integers(13, 30)), tie_heavy=trial % 5 == 0)
            try:
                lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
            except InfeasibleLineupError:  # small pools can price out of the cap
                continue
            salary, position = _maps(pool)
            assert validate_lineup(lineup, salary_cap, salary, position) == []

    def test_35000_random_draws_all_validate(self, week8_pool):
        salary_cap = 50_000
        _, position, salary, _ = columns(week8_pool)
        draws = np.concatenate(list(
            random_lineups(position, salary, salary_cap, 35_000, 45_000, seed=MASTER_SEED)
        ))
        assert draws.shape == (35_000, 9)
        assert all(random_rows_ok(week8_pool, draws, 45_000, salary_cap))


class TestGradientExactness:
    """Analytic gradients agree with central finite differences to 1e-6."""

    def test_100_network_batch_pairs(self):
        rng = np.random.default_rng(0xACC3)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            net = random_net(rng)
            norm = random_norm(rng)
            n = int(rng.integers(1, 9))
            x = rng.normal(0, 1, (n, 7))
            y = rng.normal(0, 3, n)
            l2 = float(rng.choice([0.0, 1e-3, 1e-2]))

            zt = norm.apply(x).T
            _, grad = loss_and_gradient(net, zt, y, l2)
            analytic = np.concatenate([g.ravel() for g in grad])
            theta = flat_params(net)
            numeric = np.empty_like(theta)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                lu, _ = loss_and_gradient(set_flat(net, up), zt, y, l2)
                ld, _ = loss_and_gradient(set_flat(net, down), zt, y, l2)
                numeric[i] = (lu - ld) / (2.0 * h)

            # Scale-aware denominator: components much smaller than 1 are
            # dominated by finite-difference roundoff, not gradient error.
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst <= 1e-6


class TestTrainingImproves:
    """Training reliably beats the untrained network on a learnable target."""

    def test_95_of_100_seeds_halve_initial_val_mse(self):
        x, y = make_dataset(np.random.default_rng(0xACC4), n=120)
        hyper = TrainingConfig(max_epochs=400, patience=20)
        frozen = TrainingConfig(max_epochs=150, patience=0)
        wins = 0
        for seed in range(100):
            epoch0 = train(x, y, frozen, seed)  # patience 0: no update steps
            assert epoch0.epochs_run == 0
            fitted = train(x, y, hyper, seed)
            if fitted.val_mse <= 0.5 * epoch0.val_mse:
                wins += 1
        assert wins >= 95


class TestModalConvergence:
    """On the committed season the modal lineup has stabilized by 100 models."""

    def test_first_100_models_agree_with_200(self, season_table):
        train_w = build_window(season_table, 4, "train")
        predict_w = build_window(season_table, 5, "predict")
        ensemble = train_ensemble(
            train_w.features, train_w.targets, 200, MASTER_SEED, TrainingConfig(),
            workers=8,
        )
        samples = sample_matrix(ensemble, predict_w.features)

        ids = predict_w.player_ids
        week8 = season_table.at_week(8, ids)
        salary = week8["salary"]
        position = week8["position"]
        pool = Pool(ids, position, salary, 50_000)
        lineups = [
            optimize_all_flex(tables, r)
            for tables in blocks(pool, samples)
            for r in range(len(tables.fpts))
        ]

        first_100 = modal_lineup(lineups[:100])
        full = modal_lineup(lineups)
        assert first_100.players == full.players


class TestStatisticsAgainstScipy:
    """Statistical routines agree with scipy on 50 random sample pairs."""

    def test_welch_cohens_d_and_ks(self):
        rng = np.random.default_rng(0xACC6)
        for _ in range(50):
            n_a, n_b = rng.integers(8, 200, size=2)
            a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4.0), n_a)
            b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4.0), n_b)

            got = welch_t_test(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert got.statistic == pytest.approx(ref.statistic, abs=1e-9)
            assert got.df == pytest.approx(ref.df, abs=1e-9)
            assert got.p_value == pytest.approx(ref.pvalue, abs=1e-6)

            va = np.var(a, ddof=1)
            vb = np.var(b, ddof=1)
            pooled = np.sqrt(((n_a - 1) * va + (n_b - 1) * vb) / (n_a + n_b - 2))
            assert cohens_d(a, b) == pytest.approx(
                (a.mean() - b.mean()) / pooled, abs=1e-9
            )

            ks = ks_normality(a)
            ref_ks = scipy.stats.kstest(
                a, "norm", args=(a.mean(), a.std(ddof=1)), mode="asymp"
            )
            assert ks.statistic == pytest.approx(ref_ks.statistic, abs=1e-9)
            assert ks.p_value == pytest.approx(ref_ks.pvalue, abs=1e-6)


class TestPercentilesAndBootstrap:
    """Percentiles match direct counting; the large-n bootstrap CI is tight."""

    def test_1000_percentile_fixtures_match_direct_counting(self):
        rng = np.random.default_rng(0xACC7)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            values = np.round(rng.normal(120, 30, n), 1)  # rounding forces ties
            score = float(rng.choice(np.append(values, rng.normal(120, 30))))
            below = sum(1 for v in values if v < score)
            equal = sum(1 for v in values if v == score)
            expected = 100.0 * (below + 0.5 * equal) / n
            assert percentile(score, values) == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_ci_width_at_contest_scale(self):
        rng = np.random.default_rng(0xACC8)
        pop = rng.normal(120, 25, 35_000)
        score = 150.0
        lo, hi = bootstrap_ci(score, pop, resamples=10_000, level=0.95, seed=3)
        point = percentile(score, pop)
        assert lo <= point <= hi
        assert hi - lo <= 2.0


def _write_config(tmp_path, out_name):
    cfg = {
        "players_csv": str(FIXTURES / "season.csv"),
        "contest_results_csv": str(FIXTURES / "contest_results.csv"),
        "output_dir": str(tmp_path / out_name),
        "target_week": 8,
        "n_models": 4,
        "master_seed": MASTER_SEED,
        "training": {"max_epochs": 120, "patience": 10},
        "random_baseline": {"count": 300, "min_salary": 45_000},
        "report": {"bootstrap_resamples": 500},
    }
    path = tmp_path / f"{out_name}.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


ARTIFACTS = (
    "season.npz",
    "train_window.npz",
    "predict_window.npz",
    "eligibility.csv",
    "predictions.csv",
    "samples.npz",
    "lineup.csv",
    "lineup.json",
    "validation_report.json",
    "percentiles.csv",
    "histograms.csv",
    "boxplot.csv",
)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("acceptance")
    config = _write_config(tmp_path, "run_a")
    for command in ("ingest", "predict", "optimize", "validate"):
        assert main([command, "--config", str(config)]) == EXIT_OK
    return tmp_path, config


class TestReproducibility:
    """Reruns are byte-identical and worker count never changes results."""

    def test_two_full_runs_are_byte_identical(self, pipeline_run):
        tmp_path, _ = pipeline_run
        config_b = _write_config(tmp_path, "run_b")
        for command in ("ingest", "predict", "optimize", "validate"):
            assert main([command, "--config", str(config_b)]) == EXIT_OK
        for name in ARTIFACTS:
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_parallel_and_serial_samples_identical(self, season_table):
        train_w = build_window(season_table, 4, "train")
        predict_w = build_window(season_table, 5, "predict")
        hyper = TrainingConfig(max_epochs=60, patience=5)
        # B + 3 models: a full batch and a partial one, on 2 of the 3 workers.
        x, y = train_w.features, train_w.targets
        serial = train_ensemble(x, y, B + 3, MASTER_SEED, hyper, workers=1)
        parallel = train_ensemble(x, y, B + 3, MASTER_SEED, hyper, workers=3)
        rows = predict_w.features
        assert np.array_equal(sample_matrix(serial, rows), sample_matrix(parallel, rows))


class TestValidationReportShape:
    """The validation bundle carries every figure the summary tables need."""

    def test_report_fields(self, pipeline_run):
        tmp_path, _ = pipeline_run
        report = json.loads(
            (tmp_path / "run_a" / "validation_report.json").read_text()
        )
        assert report["status"] == "valid"
        lo, hi = report["predicted_ci"]
        assert lo <= report["predicted_fpts"] <= hi
        assert isinstance(report["actual_fpts"], float)
        for pop in (report["random"], report["real_world"]):
            assert pop["n"] > 0
            clo, chi = pop["percentile_ci"]
            assert 0.0 <= clo <= pop["percentile"] <= chi <= 100.0
            assert {"mean_fpts", "ks_statistic", "boxplot"} <= set(pop)
        # User count: every contest entry with a nonzero score.
        scores = (FIXTURES / "contest_results.csv").read_text().strip().splitlines()[1:]
        nonzero = sum(1 for line in scores if float(line.split(",")[1]) > 0.0)
        assert report["real_world"]["n"] == nonzero
        assert {"statistic", "p_value", "df"} <= set(report["welch_t"])
        assert isinstance(report["cohens_d"], float)

    def test_per_player_histograms_with_actual_marker(self, pipeline_run):
        tmp_path, _ = pipeline_run
        out = tmp_path / "run_a"
        report = json.loads((out / "validation_report.json").read_text())
        lines = (out / "histograms.csv").read_text().strip().splitlines()
        assert lines[0] == "player_id,bin_low,bin_high,count,actual_fpts"
        rows = [line.split(",") for line in lines[1:]]
        by_player: dict[str, list[list[str]]] = {}
        for row in rows:
            by_player.setdefault(row[0], []).append(row)
        assert set(by_player) == set(report["players"])
        n_models = json.loads((out / "lineup.json").read_text())["n_models"]
        for pid, bins in by_player.items():
            assert sum(int(r[3]) for r in bins) == n_models
            for r in bins:
                assert float(r[1]) < float(r[2])  # non-degenerate bin
            markers = {r[4] for r in bins}
            assert len(markers) == 1  # one actual-FPTS marker per player
            float(markers.pop())
