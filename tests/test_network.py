"""Network forward/gradient correctness and training behavior."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from dfslineup.config import TrainingConfig
from dfslineup.data import N_FEATURES
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
    train_batch,
)
from dfslineup.seeds import mix64

from .oracles import (
    reference_forward,
    reference_loss_and_gradient,
    reference_train,
)


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
    """Linear-target regression rows (x, y); learnable by construction."""
    x = rng.normal(0, 1, (n, n_features))
    coef = rng.normal(0, 1, n_features)
    y = x @ coef + noise * rng.normal(0, 1, n)
    return x, y


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

            zt = norm.apply(x).T
            _, grad = loss_and_gradient(net, zt, y, lam)
            analytic = np.concatenate([g.ravel() for g in grad])
            theta = flat_params(net)
            numeric = np.empty_like(theta)
            for k in range(len(theta)):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                lu, _ = loss_and_gradient(set_flat(net, up), zt, y, lam)
                ld, _ = loss_and_gradient(set_flat(net, dn), zt, y, lam)
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
        zt = norm.apply(x).T
        loss0, grad0 = loss_and_gradient(net, zt, y, 0.0)
        loss1, grad1 = loss_and_gradient(net, zt, y, 0.1)
        assert loss1 == pytest.approx(
            loss0 + 0.1 * (np.sum(net.w1**2) + np.sum(net.w2**2))
        )
        w1, b1, w2, b2 = 0, 1, 2, 3  # Network.params() order
        assert np.allclose(grad0[b1], grad1[b1])
        assert np.allclose(grad0[b2], grad1[b2])
        assert not np.allclose(grad0[w1], grad1[w1])
        assert not np.allclose(grad0[w2], grad1[w2])

    def test_stacked_members_match_the_2d_reference_bitwise(self):
        """Loss and gradients of a stack equal each member's 2-D computation."""
        rng = np.random.default_rng(15)
        nets = [random_net(rng, N_FEATURES, 19) for _ in range(5)]
        stack = Network(*(np.stack(p) for p in zip(*(n.params() for n in nets))))
        zt = rng.normal(0, 1, (5, N_FEATURES, 31))  # feature-major, as trained
        y = rng.normal(0, 5, (5, 31))
        for lam in (1e-3, 1.0):  # at 1.0 the penalty's last bits reach the loss
            loss, grads = loss_and_gradient(stack, zt, y, lam)
            for k, net in enumerate(nets):
                ref_loss, ref_grads = reference_loss_and_gradient(
                    net.params(), zt[k], y[k], lam
                )
                assert loss[k] == ref_loss
                for g, ref in zip(grads, ref_grads):
                    assert g[k].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradients_keep_the_input_dtype(self, dtype):
        rng = np.random.default_rng(16)
        nets = [random_net(rng, N_FEATURES, 19) for _ in range(3)]
        stack = Network(*(np.stack(p, dtype=dtype) for p in zip(*(n.params() for n in nets))))
        zt = rng.normal(0, 1, (3, N_FEATURES, 31)).astype(dtype)
        y = rng.normal(0, 5, (3, 31)).astype(dtype)
        loss, grads = loss_and_gradient(stack, zt, y, 1e-3)
        assert loss.dtype == dtype
        assert [g.dtype for g in grads] == [dtype] * 4
        assert mse(stack, zt, y).dtype == dtype

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(5)
        net, norm = random_net(rng), random_norm(rng)
        with pytest.raises(ValueError):
            loss_and_gradient(net, np.empty((7, 0)), np.empty(0), 0.0)


class TestSplit:
    def test_partition_is_disjoint_and_complete(self):
        tr, va = split_data(53, 0.8, seed=11)
        assert len(tr) == 42 and len(va) == 11
        assert set(tr) | set(va) == set(range(53))
        assert set(tr) & set(va) == set()

    def test_rows_stay_aligned(self):
        """Both sides are ascending row indices, so x[tr] and y[tr] pick the
        same rows in window order."""
        for tr in split_data(20, 0.5, seed=3):
            assert tr.dtype.kind == "i" and np.all(np.diff(tr) > 0)

    def test_deterministic_per_seed(self):
        a1, _ = split_data(30, 0.8, seed=5)
        a2, _ = split_data(30, 0.8, seed=5)
        b1, _ = split_data(30, 0.8, seed=6)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b1)

    def test_extreme_fractions_keep_both_sides_nonempty(self):
        tr, va = split_data(10, 0.999, seed=0)
        assert len(tr) == 9 and len(va) == 1
        tr, va = split_data(10, 0.001, seed=0)
        assert len(tr) == 1 and len(va) == 9
        with pytest.raises(ValueError):
            split_data(10, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_data(1, 0.5, seed=0)

    def test_norm_stats_floor(self):
        x = np.ones((10, 3))
        ns = norm_stats(x)
        assert np.all(ns.std >= 1e-8)
        assert np.all(np.isfinite(ns.apply(x)))


class TestTraining:
    def test_deterministic_per_seed(self):
        x, y = make_dataset(np.random.default_rng(10), n=60)
        cfg = TrainingConfig(max_epochs=50)
        m1 = train(x, y, cfg, seed=123)
        m2 = train(x, y, cfg, seed=123)
        assert np.array_equal(m1.network.w1, m2.network.w1)
        assert m1.val_mse == m2.val_mse and m1.epochs_run == m2.epochs_run
        m3 = train(x, y, cfg, seed=124)
        assert not np.array_equal(m1.network.w1, m3.network.w1)

    def test_trains_in_float32(self):
        x, y = make_dataset(np.random.default_rng(10), n=60)
        model = train(x, y, TrainingConfig(max_epochs=20), seed=3)
        assert [p.dtype for p in model.network.params()] == [np.float32] * 4
        assert model.norm.mean.dtype == model.norm.std.dtype == np.float64

    def test_learns_linear_target(self):
        x, y = make_dataset(np.random.default_rng(11), n=150)
        model = train(x, y, TrainingConfig(max_epochs=400), seed=7)
        assert model.val_mse < np.var(y)  # beats predicting the mean

    def test_zero_patience_returns_initial_network(self):
        x, y = make_dataset(np.random.default_rng(12), n=40)
        model = train(x, y, TrainingConfig(patience=0, max_epochs=100), seed=1)
        assert model.epochs_run == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        x, y = make_dataset(np.random.default_rng(13), n=40, noise=0.0)
        cfg = TrainingConfig(learning_rate=1e12, momentum=0.99, max_epochs=50)
        with pytest.raises(TrainingDivergedError) as exc:
            train(x, y, cfg, seed=2)
        assert exc.value.epoch >= 1

    def test_divergence_error_pickles_whole(self):
        """Worker processes hand the error back pickled."""
        back = pickle.loads(pickle.dumps(TrainingDivergedError(14)))
        assert back.epoch == 14
        assert str(back) == "training diverged at epoch 14"

    def test_returns_best_validation_parameters(self):
        x, y = make_dataset(np.random.default_rng(14), n=80)
        model = train(x, y, TrainingConfig(max_epochs=200), seed=9)
        # Retraining with more epochs can only improve or match best-val MSE.
        longer = train(x, y, TrainingConfig(max_epochs=400), seed=9)
        assert longer.val_mse <= model.val_mse + 1e-12


def reference_outcome(x, y, hyper, seed):
    """The one-network reference loop, fed the split and init a seed derives,
    feature-major and rounded to float32 as production lays them out."""
    tr, va = split_data(len(x), hyper.train_fraction, mix64(seed, 1))
    norm = norm_stats(x[tr])
    net = init_network(x.shape[1], hyper.hidden_units, mix64(seed, 2))
    arrays = (*net.params(), norm.apply(x[tr]).T, y[tr], norm.apply(x[va]).T, y[va])
    out = reference_train(*(a.astype(np.float32, order="C") for a in arrays), hyper)
    if out[0] == "diverged":
        return out
    params, train_mse, val_mse, epochs_run = out
    return (tuple(p.tobytes() for p in params), train_mse, val_mse, epochs_run)


def outcome(result):
    if isinstance(result, TrainingDivergedError):
        return ("diverged", result.epoch)
    params = tuple(p.tobytes() for p in result.network.params())
    return (params, result.train_mse, result.val_mse, result.epochs_run)


def epochs(outcomes):
    return [o[3] for o in outcomes if o[0] != "diverged"]


class TestBatchIndependence:
    """A member's bytes do not depend on the batch it trains in."""

    SEEDS = list(range(10))
    CASES = {
        # (dataset seed, rows, hyperparameters, what the case must exhibit)
        "stops_at_different_epochs": (
            20, 60, TrainingConfig(max_epochs=200, patience=5),
            lambda out: len(set(epochs(out))) > 1,
        ),
        "patience_1": (
            21, 50, TrainingConfig(max_epochs=200, patience=1),
            lambda out: min(epochs(out)) == 1 and len(set(epochs(out))) > 2,
        ),
        "max_epochs_reached": (
            22, 50, TrainingConfig(max_epochs=7, patience=20),
            lambda out: epochs(out) == [7] * 10,
        ),
        # In float32, member 4 diverges at the validation-MSE check of epoch
        # 9 while seven others train on; eight diverge at the training-loss
        # check and member 2 stays healthy.
        "some_diverge_beside_healthy": (
            13, 40, TrainingConfig(learning_rate=170.0, momentum=0.9, max_epochs=60),
            lambda out: 0 < sum(o[0] == "diverged" for o in out) < 10,
        ),
        # In float32, member 1 diverges at the validation-MSE check of epoch
        # 8, the rest at the training-loss check of epochs 6 to 8.
        "diverges_at_both_checks": (
            13, 40, TrainingConfig(learning_rate=300.0, momentum=0.9, max_epochs=60),
            lambda out: all(o[0] == "diverged" for o in out)
            and len({o[1] for o in out}) > 1,
        ),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batches_equal_the_reference_loop(self, case):
        ds_seed, n, hyper, exhibits = self.CASES[case]
        x, y = make_dataset(np.random.default_rng(ds_seed), n=n)
        expected = [reference_outcome(x, y, hyper, s) for s in self.SEEDS]
        assert exhibits(expected)
        for size in (1, 3, 4, 10):
            got = [
                outcome(r)
                for i in range(0, len(self.SEEDS), size)
                for r in train_batch(x, y, hyper, self.SEEDS[i : i + size])
            ]
            assert got == expected, f"batches of {size}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_is_the_one_member_batch(self):
        ds_seed, n, hyper, _ = self.CASES["some_diverge_beside_healthy"]
        x, y = make_dataset(np.random.default_rng(ds_seed), n=n)
        for seed, result in zip(self.SEEDS, train_batch(x, y, hyper, self.SEEDS)):
            if isinstance(result, TrainingDivergedError):
                with pytest.raises(TrainingDivergedError) as exc:
                    train(x, y, hyper, seed)
                assert exc.value.epoch == result.epoch
            else:
                assert outcome(train(x, y, hyper, seed)) == outcome(result)
