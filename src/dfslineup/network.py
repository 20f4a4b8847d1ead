"""Two-layer feed-forward regression network trained with momentum gradient descent.

Architecture is fixed by configuration: 43 inputs, one sigmoid hidden layer
(default 19 units), one linear output.  Training is full-batch gradient
descent with momentum, an L2 penalty on weights (not biases), early stopping
on a held-out validation split, and learning-rate halving whenever the
training loss increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import N_FEATURES, WindowDataset
from .errors import TrainingDivergedError
from .seeds import mix64

STD_FLOOR = 1e-8


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
class Network:
    """Weights and biases; w1 is (hidden, inputs), w2 is (1, hidden)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "Network":
        return Network(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def params(self):
        return (self.w1, self.b1, self.w2, self.b2)


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class NormStats:
    """Per-feature z-score statistics, computed on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass
class TrainedModel:
    network: Network
    norm: NormStats
    seed: int
    train_mse: float
    val_mse: float
    epochs_run: int


def sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def init_network(n_inputs: int, n_hidden: int, seed: int) -> Network:
    """Uniform [-r, r] init with r = sqrt(6 / (fan_in + fan_out)) per layer."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    r2 = np.sqrt(6.0 / (n_hidden + 1))
    return Network(
        w1=rng.uniform(-r1, r1, size=(n_hidden, n_inputs)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-r2, r2, size=(1, n_hidden)),
        b2=np.zeros(1),
    )


def norm_stats(x: np.ndarray) -> NormStats:
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_FLOOR)
    return NormStats(mean=mean, std=std)


def split_data(dataset: WindowDataset, train_fraction: float, seed: int):
    """Disjoint shuffled train/validation partition, deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    if not dataset.has_targets:
        raise ValueError("cannot split a dataset without targets")
    n = len(dataset)
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    train_idx, val_idx = np.sort(perm[:n_train]), np.sort(perm[n_train:])

    def take(idx):
        return WindowDataset(
            window_index=dataset.window_index,
            player_ids=[dataset.player_ids[i] for i in idx],
            features=dataset.features[idx],
            targets=dataset.targets[idx],
            has_targets=True,
        )

    return take(train_idx), take(val_idx)


def _forward_batch(net: Network, z: np.ndarray):
    hidden = sigmoid(z @ net.w1.T + net.b1)
    preds = hidden @ net.w2.ravel() + net.b2[0]
    return hidden, preds


def forward(net: Network, norm: NormStats, x) -> float:
    """Predict FPTS for one 43-entry feature vector."""
    values = np.asarray(x, dtype=np.float64)
    if values.shape != (net.w1.shape[1],):
        raise ValueError(f"expected {net.w1.shape[1]} features, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite feature value")
    _, preds = _forward_batch(net, norm.apply(values[None, :]))
    return float(preds[0])


def predict_batch(net: Network, norm: NormStats, x: np.ndarray) -> np.ndarray:
    _, preds = _forward_batch(net, norm.apply(x))
    return preds


def mse(net: Network, norm: NormStats, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((predict_batch(net, norm, x) - y) ** 2))


def loss_and_gradient(
    net: Network, norm: NormStats, x: np.ndarray, y: np.ndarray, l2_penalty: float
):
    """MSE plus L2 weight penalty, with exact analytic gradients.

    Biases are excluded from the penalty.  x holds raw (unnormalized)
    feature rows; normalization is applied internally.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    n = x.shape[0]
    z = norm.apply(x)
    hidden, preds = _forward_batch(net, z)
    err = preds - y
    loss = float(np.mean(err**2)) + l2_penalty * float(
        np.sum(net.w1**2) + np.sum(net.w2**2)
    )

    dpred = 2.0 * err / n  # (n,)
    gw2 = (dpred @ hidden)[None, :] + 2.0 * l2_penalty * net.w2
    gb2 = np.array([dpred.sum()])
    dhidden = dpred[:, None] * net.w2.ravel()[None, :]  # (n, hidden)
    dact = dhidden * hidden * (1.0 - hidden)
    gw1 = dact.T @ z + 2.0 * l2_penalty * net.w1
    gb1 = dact.sum(axis=0)
    return loss, Gradients(w1=gw1, b1=gb1, w2=gw2, b2=gb2)


def train(dataset: WindowDataset, hyper: TrainingConfig, seed: int) -> TrainedModel:
    """Fit one model; returns the parameters from the best-validation epoch.

    The split seed and the weight-init seed are both derived from ``seed``
    so that a single integer fully determines the model.
    """
    split_seed = mix64(seed, 1)
    init_seed = mix64(seed, 2)
    train_set, val_set = split_data(dataset, hyper.train_fraction, split_seed)

    norm = norm_stats(train_set.features)
    net = init_network(dataset.features.shape[1], hyper.hidden_units, init_seed)

    x_tr, y_tr = train_set.features, train_set.targets
    x_val, y_val = val_set.features, val_set.targets

    best_net = net.copy()
    best_val = mse(net, norm, x_val, y_val)
    stale = 0
    lr = hyper.learning_rate
    prev_loss = np.inf
    velocity = Gradients(
        w1=np.zeros_like(net.w1),
        b1=np.zeros_like(net.b1),
        w2=np.zeros_like(net.w2),
        b2=np.zeros_like(net.b2),
    )

    epochs_run = 0
    for epoch in range(1, hyper.max_epochs + 1):
        if stale >= hyper.patience:
            break
        loss, grad = loss_and_gradient(net, norm, x_tr, y_tr, hyper.l2_penalty)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        if loss > prev_loss:
            lr *= 0.5
        prev_loss = loss
        for name in ("w1", "b1", "w2", "b2"):
            v = hyper.momentum * getattr(velocity, name) - lr * getattr(grad, name)
            setattr(velocity, name, v)
            setattr(net, name, getattr(net, name) + v)
        epochs_run = epoch

        val = mse(net, norm, x_val, y_val)
        if not np.isfinite(val):
            raise TrainingDivergedError(epoch)
        if val < best_val:
            best_val = val
            best_net = net.copy()
            stale = 0
        else:
            stale += 1

    return TrainedModel(
        network=best_net,
        norm=norm,
        seed=seed,
        train_mse=mse(best_net, norm, x_tr, y_tr),
        val_mse=best_val,
        epochs_run=epochs_run,
    )


def save_model(model: TrainedModel, path) -> None:
    """Serialize to .npz; float64 round-trips are bit-exact."""
    np.savez(
        path,
        w1=model.network.w1,
        b1=model.network.b1,
        w2=model.network.w2,
        b2=model.network.b2,
        mean=model.norm.mean,
        std=model.norm.std,
        meta=np.array(
            [model.seed, model.epochs_run], dtype=np.int64
        ),
        scores=np.array([model.train_mse, model.val_mse], dtype=np.float64),
    )


def load_model(path) -> TrainedModel:
    with np.load(path) as blob:
        return TrainedModel(
            network=Network(blob["w1"], blob["b1"], blob["w2"], blob["b2"]),
            norm=NormStats(mean=blob["mean"], std=blob["std"]),
            seed=int(blob["meta"][0]),
            epochs_run=int(blob["meta"][1]),
            train_mse=float(blob["scores"][0]),
            val_mse=float(blob["scores"][1]),
        )
