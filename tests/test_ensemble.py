"""Ensemble training determinism, distributions, and interval semantics."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from dfslineup import ensemble as ensemble_module
from dfslineup.config import TrainingConfig
from dfslineup.data import N_FEATURES
from dfslineup.ensemble import (
    RETRY_SALT,
    lineup_prediction_interval,
    model_seed,
    predict_distribution,
    sample_matrix,
    train_ensemble,
)
from dfslineup.errors import TrainingDivergedError
from dfslineup.seeds import mix64

from .test_network import make_dataset

FAST = TrainingConfig(max_epochs=40, patience=5)
B = ensemble_module.B


def make_predict_rows(rng, n=12):
    return rng.normal(0, 1, (n, N_FEATURES))


class TestTraining:
    def test_model_seeds_are_index_stable(self):
        assert model_seed(99, 3) == mix64(99, 3)
        seeds = {model_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_deterministic_and_order_independent(self):
        x, y = make_dataset(np.random.default_rng(0), n=60)
        e1 = train_ensemble(x, y, 6, master_seed=11, hyper=FAST)
        e2 = train_ensemble(x, y, 6, master_seed=11, hyper=FAST)
        for m1, m2 in zip(e1.models, e2.models):
            assert np.array_equal(m1.network.w1, m2.network.w1)
            assert m1.val_mse == m2.val_mse

    def test_parallel_equals_serial(self):
        """B + 3 models make batches of B and 3, spread over 2 of 3 workers."""
        x, y = make_dataset(np.random.default_rng(1), n=60)
        serial = train_ensemble(x, y, B + 3, master_seed=5, hyper=FAST, workers=1)
        parallel = train_ensemble(x, y, B + 3, master_seed=5, hyper=FAST, workers=3)
        assert len(serial) == len(parallel) == B + 3
        for ms, mp in zip(serial.models, parallel.models):
            assert ms.seed == mp.seed
            assert ms.epochs_run == mp.epochs_run and ms.val_mse == mp.val_mse
            for a, b in zip(ms.network.params(), mp.network.params()):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "workers, n_models, pool_size",
        # 2 * B + 4 models make three batches.
        [(64, 3, None), (64, 2 * B + 4, 3), (2, 2 * B + 4, 2), (1, 2 * B + 4, None)],
    )
    def test_pool_has_no_more_workers_than_batches(
        self, monkeypatch, workers, n_models, pool_size
    ):
        sizes = []

        class RecordingPool:
            """Stands in for the process pool; runs the batches in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        x, y = make_dataset(np.random.default_rng(8), n=30)
        hyper = TrainingConfig(max_epochs=3)
        ensemble = train_ensemble(x, y, n_models, master_seed=3, hyper=hyper, workers=workers
        )
        assert len(ensemble) == n_models
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_diverged_member_is_retrained_with_the_retry_seed(self, monkeypatch):
        x, y = make_dataset(np.random.default_rng(9), n=40)
        master, k = 17, 9
        first_seed = model_seed(master, k)
        real = ensemble_module.train_batch

        def first_seed_of_k_diverges(x, y, hyper, seeds):
            results = real(x, y, hyper, seeds)
            return [
                TrainingDivergedError(3) if s == first_seed else r
                for s, r in zip(seeds, results)
            ]

        monkeypatch.setattr(ensemble_module, "train_batch", first_seed_of_k_diverges)
        ensemble = train_ensemble(x, y, 11, master_seed=master, hyper=FAST)
        seeds = [m.seed for m in ensemble.models]
        assert seeds[k] == mix64(first_seed, RETRY_SALT)
        assert seeds[:k] + seeds[k + 1 :] == [
            model_seed(master, i) for i in range(11) if i != k
        ]
        # The tracer counts a retry as a seed that is not model_seed(master, i).
        assert sum(s != model_seed(master, i) for i, s in enumerate(seeds)) == 1
        alone = real(x, y, FAST, [seeds[k]])[0]
        assert np.array_equal(ensemble.models[k].network.w1, alone.network.w1)

    def test_members_do_not_depend_on_the_batch_size(self, monkeypatch):
        """B sets only how many members share an array program: batches of
        1, of 8 and of B give the same bytes."""
        x, y = make_dataset(np.random.default_rng(5), n=60)
        runs = []
        for batch in (1, 8, B):
            monkeypatch.setattr(ensemble_module, "B", batch)
            ensemble = train_ensemble(x, y, 11, master_seed=23, hyper=FAST)
            runs.append([
                (m.seed, m.epochs_run, m.train_mse, m.val_mse,
                 *(p.tobytes() for p in m.network.params()))
                for m in ensemble.models
            ])
        assert runs[0] == runs[1] == runs[2]

    def test_prefix_property(self):
        """The first k models of a larger ensemble equal a smaller ensemble."""
        x, y = make_dataset(np.random.default_rng(2), n=60)
        small = train_ensemble(x, y, 3, master_seed=21, hyper=FAST)
        large = train_ensemble(x, y, 6, master_seed=21, hyper=FAST)
        for ms, ml in zip(small.models, large.models[:3]):
            assert np.array_equal(ms.network.w1, ml.network.w1)

    def test_rejects_zero_models(self):
        x, y = make_dataset(np.random.default_rng(3), n=30)
        with pytest.raises(ValueError):
            train_ensemble(x, y, 0, master_seed=1, hyper=FAST)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(4)
    x, y = make_dataset(rng, n=80)
    ensemble = train_ensemble(x, y, 10, master_seed=9, hyper=FAST)
    return ensemble, make_predict_rows(rng)


class TestDistributions:
    def test_sample_matrix_shape_and_columns(self, trained):
        ensemble, rows = trained
        samples = sample_matrix(ensemble, rows)
        assert samples.shape == (10, len(rows))
        from dfslineup.network import predict_batch

        row0 = predict_batch(ensemble.models[0].network, ensemble.models[0].norm, rows)
        assert np.array_equal(samples[0], row0)

    def test_float32_members_give_float64_samples(self, trained):
        ensemble, rows = trained
        assert ensemble.models[0].network.w1.dtype == np.float32
        assert sample_matrix(ensemble, rows).dtype == np.float64

    def test_distribution_quantiles_match_numpy(self, trained):
        ensemble, rows = trained
        samples = sample_matrix(ensemble, rows)
        mean, ci_low, ci_high = predict_distribution(samples, level=0.90)
        assert mean.shape == ci_low.shape == ci_high.shape == (len(rows),)
        cols = [samples[:, j] for j in range(len(rows))]
        assert np.array_equal(mean, [col.mean() for col in cols])
        np.testing.assert_allclose(
            np.column_stack([ci_low, ci_high]),
            [np.quantile(col, [0.05, 0.95], method="linear") for col in cols],
            rtol=1e-12,
        )
        assert np.all((ci_low <= mean) & (mean <= ci_high))

    def test_rejects_bad_feature_width_and_level(self, trained):
        ensemble, rows = trained
        with pytest.raises(ValueError):
            predict_distribution(sample_matrix(ensemble, rows), level=1.0)
        with pytest.raises(ValueError):
            sample_matrix(ensemble, rows[:, :10])


class TestLineupInterval:
    def test_sum_preserves_correlation(self):
        """Anticorrelated players: the lineup interval must collapse, not add."""
        t = np.linspace(-1, 1, 200)
        samples = np.column_stack([10.0 + t, 10.0 - t])
        mean, lo, hi = lineup_prediction_interval(samples, level=0.9)
        assert mean == pytest.approx(20.0)
        assert hi - lo == pytest.approx(0.0, abs=1e-12)
        # Independent-looking per-player intervals would have been ~ +/- 0.9 wide.
        mean_a, lo_a, hi_a = lineup_prediction_interval(samples[:, :1], 0.9)
        assert hi_a - lo_a > 1.0

    def test_matches_direct_totals(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(10, 2, (50, 9))
        mean, lo, hi = lineup_prediction_interval(samples, level=0.95)
        totals = np.sum([samples[:, j] for j in range(9)], axis=0)
        assert mean == totals.mean()
        qlo, qhi = np.quantile(totals, [0.025, 0.975], method="linear")
        assert lo == pytest.approx(qlo) and hi == pytest.approx(qhi)
