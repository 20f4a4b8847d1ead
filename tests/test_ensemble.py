"""Ensemble training determinism, distributions, and interval semantics."""

from __future__ import annotations

import numpy as np
import pytest

from dfslineup import ensemble as ensemble_module
from dfslineup.config import TrainingConfig
from dfslineup.data import N_FEATURES, WindowDataset
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


def make_predict_window(rng, n=12):
    return WindowDataset(
        window_index=5,
        player_ids=[f"P{i:03d}" for i in range(n)],
        features=rng.normal(0, 1, (n, N_FEATURES)),
        targets=None,
    )


class TestTraining:
    def test_model_seeds_are_index_stable(self):
        assert model_seed(99, 3) == mix64(99, 3)
        seeds = {model_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_deterministic_and_order_independent(self):
        ds = make_dataset(np.random.default_rng(0), n=60)
        e1 = train_ensemble(ds, 6, master_seed=11, hyper=FAST)
        e2 = train_ensemble(ds, 6, master_seed=11, hyper=FAST)
        for m1, m2 in zip(e1.models, e2.models):
            assert np.array_equal(m1.network.w1, m2.network.w1)
            assert m1.val_mse == m2.val_mse

    def test_parallel_equals_serial(self):
        """11 models make batches of 8 and 3, spread over 2 of 3 workers."""
        ds = make_dataset(np.random.default_rng(1), n=60)
        serial = train_ensemble(ds, 11, master_seed=5, hyper=FAST, workers=1)
        parallel = train_ensemble(ds, 11, master_seed=5, hyper=FAST, workers=3)
        assert len(serial) == len(parallel) == 11
        for ms, mp in zip(serial.models, parallel.models):
            assert ms.seed == mp.seed
            assert ms.epochs_run == mp.epochs_run and ms.val_mse == mp.val_mse
            for a, b in zip(ms.network.params(), mp.network.params()):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "workers, n_models, pool_size",
        [(64, 3, None), (64, 20, 3), (2, 20, 2), (1, 20, None)],
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

        monkeypatch.setattr(ensemble_module, "ProcessPoolExecutor", RecordingPool)
        ds = make_dataset(np.random.default_rng(8), n=30)
        hyper = TrainingConfig(max_epochs=3)
        ensemble = train_ensemble(
            ds, n_models, master_seed=3, hyper=hyper, workers=workers
        )
        assert len(ensemble) == n_models
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_diverged_member_is_retrained_with_the_retry_seed(self, monkeypatch):
        ds = make_dataset(np.random.default_rng(9), n=40)
        master, k = 17, 9
        first_seed = model_seed(master, k)
        real = ensemble_module.train_batch

        def first_seed_of_k_diverges(dataset, hyper, seeds):
            results = real(dataset, hyper, seeds)
            return [
                TrainingDivergedError(3) if s == first_seed else r
                for s, r in zip(seeds, results)
            ]

        monkeypatch.setattr(ensemble_module, "train_batch", first_seed_of_k_diverges)
        ensemble = train_ensemble(ds, 11, master_seed=master, hyper=FAST)
        seeds = [m.seed for m in ensemble.models]
        assert seeds[k] == mix64(first_seed, RETRY_SALT)
        assert seeds[:k] + seeds[k + 1 :] == [
            model_seed(master, i) for i in range(11) if i != k
        ]
        # The tracer counts a retry as a seed that is not model_seed(master, i).
        assert sum(s != model_seed(master, i) for i, s in enumerate(seeds)) == 1
        alone = real(ds, FAST, [seeds[k]])[0]
        assert np.array_equal(ensemble.models[k].network.w1, alone.network.w1)

    def test_prefix_property(self):
        """The first k models of a larger ensemble equal a smaller ensemble."""
        ds = make_dataset(np.random.default_rng(2), n=60)
        small = train_ensemble(ds, 3, master_seed=21, hyper=FAST)
        large = train_ensemble(ds, 6, master_seed=21, hyper=FAST)
        for ms, ml in zip(small.models, large.models[:3]):
            assert np.array_equal(ms.network.w1, ml.network.w1)

    def test_rejects_zero_models(self):
        ds = make_dataset(np.random.default_rng(3), n=30)
        with pytest.raises(ValueError):
            train_ensemble(ds, 0, master_seed=1, hyper=FAST)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, n=80)
    ensemble = train_ensemble(ds, 10, master_seed=9, hyper=FAST)
    window = make_predict_window(rng)
    return ensemble, window


class TestDistributions:
    def test_sample_matrix_shape_and_columns(self, trained):
        ensemble, window = trained
        samples = sample_matrix(ensemble, window)
        assert samples.shape == (10, len(window))
        from dfslineup.network import predict_batch

        row0 = predict_batch(
            ensemble.models[0].network, ensemble.models[0].norm, window.features
        )
        assert np.array_equal(samples[0], row0)

    def test_distribution_quantiles_match_numpy(self, trained):
        ensemble, window = trained
        samples = sample_matrix(ensemble, window)
        mean, ci_low, ci_high = predict_distribution(samples, level=0.90)
        assert mean.shape == ci_low.shape == ci_high.shape == (len(window),)
        cols = [samples[:, j] for j in range(len(window))]
        assert np.array_equal(mean, [col.mean() for col in cols])
        np.testing.assert_allclose(
            np.column_stack([ci_low, ci_high]),
            [np.quantile(col, [0.05, 0.95], method="linear") for col in cols],
            rtol=1e-12,
        )
        assert np.all((ci_low <= mean) & (mean <= ci_high))

    def test_rejects_training_window_and_bad_level(self, trained):
        ensemble, window = trained
        ds = make_dataset(np.random.default_rng(5), n=20)
        with pytest.raises(ValueError):
            sample_matrix(ensemble, ds)
        with pytest.raises(ValueError):
            predict_distribution(sample_matrix(ensemble, window), level=1.0)
        bad = make_predict_window(np.random.default_rng(6))
        bad.features = bad.features[:, :10]
        with pytest.raises(ValueError):
            sample_matrix(ensemble, bad)


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
