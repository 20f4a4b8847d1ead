"""Network forward/gradient correctness and training behavior."""

from __future__ import annotations

import numpy as np
import pytest

from dfslineup.config import TrainingConfig
from dfslineup.data import N_FEATURES, WindowDataset
from dfslineup.errors import TrainingDivergedError
from dfslineup.network import (
    Network,
    NormStats,
    init_network,
    loss_and_gradient,
    mse,
    norm_stats,
    predict_batch,
    split_data,
    train,
)

from .oracles import reference_forward


def random_net(rng, n_inputs=7, n_hidden=4):
    return Network(
        w1=rng.normal(0, 0.6, (n_hidden, n_inputs)),
        b1=rng.normal(0, 0.3, n_hidden),
        w2=rng.normal(0, 0.6, (1, n_hidden)),
        b2=rng.normal(0, 0.3, 1),
    )


def random_norm(rng, n_inputs=7):
    return NormStats(mean=rng.normal(0, 1, n_inputs), std=rng.uniform(0.5, 2.0, n_inputs))


def make_dataset(rng, n=80, n_features=N_FEATURES, noise=0.5):
    """Linear-target regression data; learnable by construction."""
    x = rng.normal(0, 1, (n, n_features))
    coef = rng.normal(0, 1, n_features)
    y = x @ coef + noise * rng.normal(0, 1, n)
    return WindowDataset(
        window_index=1,
        player_ids=[f"P{i:03d}" for i in range(n)],
        features=x,
        targets=y,
    )


def flat_params(net):
    return np.concatenate([p.ravel() for p in net.params()])


def set_flat(net, vec):
    out = net.copy()
    k = 0
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(out, name)
        setattr(out, name, vec[k : k + arr.size].reshape(arr.shape))
        k += arr.size
    return out


def reference(net, norm, x):
    return reference_forward(net.w1, net.b1, net.w2, net.b2, norm.mean, norm.std, x)


class TestForward:
    def test_matches_scalar_reference(self):
        """One-row batches, one random network each."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            net, norm = random_net(rng), random_norm(rng)
            x = rng.normal(0, 2, 7)
            (got,) = predict_batch(net, norm, x[None, :])
            assert got == pytest.approx(reference(net, norm, x), abs=1e-12)

    def test_predict_batch_matches_forward(self):
        """Every row of a multi-row batch matches the scalar reference."""
        rng = np.random.default_rng(2)
        net, norm = random_net(rng), random_norm(rng)
        x = rng.normal(0, 1, (9, 7))
        batch = predict_batch(net, norm, x)
        for i in range(9):
            assert batch[i] == pytest.approx(reference(net, norm, x[i]), abs=1e-12)


class TestGradient:
    def test_finite_difference_agreement(self):
        """Central differences vs analytic gradients on random nets/batches."""
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(25):
            n_in, n_hid = int(rng.integers(3, 9)), int(rng.integers(2, 6))
            net = random_net(rng, n_in, n_hid)
            norm = random_norm(rng, n_in)
            x = rng.normal(0, 1.5, (int(rng.integers(2, 12)), n_in))
            y = rng.normal(0, 5, x.shape[0])
            lam = float(rng.choice([0.0, 1e-3, 1e-2]))

            _, grad = loss_and_gradient(net, norm, x, y, lam)
            analytic = np.concatenate([g.ravel() for g in grad])
            theta = flat_params(net)
            numeric = np.empty_like(theta)
            for k in range(len(theta)):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                lu, _ = loss_and_gradient(set_flat(net, up), norm, x, y, lam)
                ld, _ = loss_and_gradient(set_flat(net, dn), norm, x, y, lam)
                numeric[k] = (lu - ld) / (2 * h)
            # Scale-aware relative error: near-zero components are judged
            # against the loss scale, not their own magnitude, since central
            # differences carry ~eps*|loss|/h of roundoff noise.
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() <= 1e-6

    def test_l2_penalty_excludes_biases(self):
        rng = np.random.default_rng(4)
        net, norm = random_net(rng), random_norm(rng)
        x = rng.normal(0, 1, (5, 7))
        y = rng.normal(0, 1, 5)
        loss0, grad0 = loss_and_gradient(net, norm, x, y, 0.0)
        loss1, grad1 = loss_and_gradient(net, norm, x, y, 0.1)
        assert loss1 == pytest.approx(
            loss0 + 0.1 * (np.sum(net.w1**2) + np.sum(net.w2**2))
        )
        w1, b1, w2, b2 = 0, 1, 2, 3  # Network.params() order
        assert np.allclose(grad0[b1], grad1[b1])
        assert np.allclose(grad0[b2], grad1[b2])
        assert not np.allclose(grad0[w1], grad1[w1])
        assert not np.allclose(grad0[w2], grad1[w2])

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(5)
        net, norm = random_net(rng), random_norm(rng)
        with pytest.raises(ValueError):
            loss_and_gradient(net, norm, np.empty((0, 7)), np.empty(0), 0.0)


class TestSplit:
    def test_partition_is_disjoint_and_complete(self):
        ds = make_dataset(np.random.default_rng(6), n=53)
        tr, va = split_data(ds, 0.8, seed=11)
        assert len(tr) == 42 and len(va) == 11
        assert set(tr.player_ids) | set(va.player_ids) == set(ds.player_ids)
        assert set(tr.player_ids) & set(va.player_ids) == set()

    def test_rows_stay_aligned(self):
        ds = make_dataset(np.random.default_rng(7), n=20)
        tr, _ = split_data(ds, 0.5, seed=3)
        by_id = {pid: i for i, pid in enumerate(ds.player_ids)}
        for i, pid in enumerate(tr.player_ids):
            assert np.array_equal(tr.features[i], ds.features[by_id[pid]])
            assert tr.targets[i] == ds.targets[by_id[pid]]

    def test_deterministic_per_seed(self):
        ds = make_dataset(np.random.default_rng(8), n=30)
        a1, _ = split_data(ds, 0.8, seed=5)
        a2, _ = split_data(ds, 0.8, seed=5)
        b1, _ = split_data(ds, 0.8, seed=6)
        assert a1.player_ids == a2.player_ids
        assert a1.player_ids != b1.player_ids

    def test_extreme_fractions_keep_both_sides_nonempty(self):
        ds = make_dataset(np.random.default_rng(9), n=10)
        tr, va = split_data(ds, 0.999, seed=0)
        assert len(tr) == 9 and len(va) == 1
        tr, va = split_data(ds, 0.001, seed=0)
        assert len(tr) == 1 and len(va) == 9
        with pytest.raises(ValueError):
            split_data(ds, 1.0, seed=0)

    def test_norm_stats_floor(self):
        x = np.ones((10, 3))
        ns = norm_stats(x)
        assert np.all(ns.std >= 1e-8)
        assert np.all(np.isfinite(ns.apply(x)))


class TestTraining:
    def test_deterministic_per_seed(self):
        ds = make_dataset(np.random.default_rng(10), n=60)
        cfg = TrainingConfig(max_epochs=50)
        m1 = train(ds, cfg, seed=123)
        m2 = train(ds, cfg, seed=123)
        assert np.array_equal(m1.network.w1, m2.network.w1)
        assert m1.val_mse == m2.val_mse and m1.epochs_run == m2.epochs_run
        m3 = train(ds, cfg, seed=124)
        assert not np.array_equal(m1.network.w1, m3.network.w1)

    def test_learns_linear_target(self):
        ds = make_dataset(np.random.default_rng(11), n=150)
        model = train(ds, TrainingConfig(max_epochs=400), seed=7)
        assert model.val_mse < np.var(ds.targets)  # beats predicting the mean

    def test_zero_patience_returns_initial_network(self):
        ds = make_dataset(np.random.default_rng(12), n=40)
        model = train(ds, TrainingConfig(patience=0, max_epochs=100), seed=1)
        assert model.epochs_run == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        ds = make_dataset(np.random.default_rng(13), n=40, noise=0.0)
        cfg = TrainingConfig(learning_rate=1e12, momentum=0.99, max_epochs=50)
        with pytest.raises(TrainingDivergedError) as exc:
            train(ds, cfg, seed=2)
        assert exc.value.epoch >= 1

    def test_returns_best_validation_parameters(self):
        ds = make_dataset(np.random.default_rng(14), n=80)
        model = train(ds, TrainingConfig(max_epochs=200), seed=9)
        # Retraining with more epochs can only improve or match best-val MSE.
        longer = train(ds, TrainingConfig(max_epochs=400), seed=9)
        assert longer.val_mse <= model.val_mse + 1e-12
