"""Two-layer feed-forward regression network trained with momentum gradient descent.

Architecture is fixed by configuration: 43 inputs, one sigmoid hidden layer
(default 19 units), one linear output.  Training is full-batch gradient
descent with momentum, an L2 penalty on weights (not biases), early stopping
on a held-out validation split, and learning-rate halving whenever the
training loss increases.

Members train in batches: ``train_batch`` stacks them on a leading member
axis and runs every epoch as one stacked program, so numpy's per-call
overhead is paid once per batch instead of once per member.  Each op acts
on a member's slice alone (a stacked ``matmul`` makes the 2-D product's
BLAS call per slice; sums run along a contiguous last axis), so a member's
bytes are the same in any batch as trained alone.

The ensemble uses fixed index batches of ``ensemble.B`` = 8 members.  On
the fixture's 200 members (2-core VM, one BLAS thread) the per-member loop
took 1.03-1.07 s; batches of 8 took 0.55 s, of 16 0.50-0.53 s, of 32
0.50-0.54 s and all 200 at once 0.59-0.63 s, for +1.4, +2.6, +5.6 and
+36.5 MB of peak RSS over the loop's 43.1 MB.  Memory grows with a
window's rows: at 8, predict on the 3x-deep season peaks at 44.3 MB,
under the 46.4 MB of its ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import TrainingConfig
from .data import WindowDataset
from .errors import TrainingDivergedError
from .seeds import mix64

STD_FLOOR = 1e-8


@dataclass
class Network:
    """Weights and biases; w1 is (hidden, inputs), w2 is (1, hidden).

    A stack of networks carries a leading member axis on every array.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "Network":
        return Network(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def params(self):
        return (self.w1, self.b1, self.w2, self.b2)


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
    if dataset.targets is None:
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
        )

    return take(train_idx), take(val_idx)


def _forward(net: Network, z: np.ndarray):
    """Hidden activations and predictions for normalized rows z.

    Works on one network, z (n, inputs), or on a stack, z (members, n, inputs).
    Each member's slice gets the same BLAS call as a lone 2-D product.
    """
    # The sigmoid 1 / (1 + exp(-t)) runs op for op in one buffer: at
    # (8, 189, 19) a fresh array per op made it 375 us against 77 us (2-core VM).
    hidden = z @ np.swapaxes(net.w1, -1, -2)
    hidden += net.b1[..., None, :]
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    preds = (hidden @ np.swapaxes(net.w2, -1, -2))[..., 0] + net.b2
    return hidden, preds


def predict_batch(net: Network, norm: NormStats, x: np.ndarray) -> np.ndarray:
    _, preds = _forward(net, norm.apply(x))
    return preds


def mse(net: Network, z: np.ndarray, y: np.ndarray):
    """Mean squared error on normalized rows; one value per stacked member."""
    _, preds = _forward(net, z)
    return np.add.reduce((preds - y) ** 2, axis=-1) / z.shape[-2]


def _sum_of_squares(w: np.ndarray):
    # Flattened to one contiguous last axis, each member sums like np.sum(w**2).
    return np.add.reduce((w**2).reshape(w.shape[:-2] + (-1,)), axis=-1)


def loss_and_gradient(net: Network, z: np.ndarray, y: np.ndarray, l2_penalty: float):
    """MSE plus L2 weight penalty, with exact analytic gradients.

    Returns (loss, grads), grads a tuple in ``Network.params()`` order.
    Biases are excluded from the penalty.  z holds normalized feature rows,
    for one network or, with a leading member axis, for a stack of them.
    """
    n = z.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    hidden, preds = _forward(net, z)
    err = preds - y
    loss = np.add.reduce(err**2, axis=-1) / n + l2_penalty * (
        _sum_of_squares(net.w1) + _sum_of_squares(net.w2)
    )

    dpred = 2.0 * err / n  # (..., n)
    gw2 = dpred[..., None, :] @ hidden + 2.0 * l2_penalty * net.w2
    gb2 = np.add.reduce(dpred, axis=-1, keepdims=True)
    dact = dpred[..., :, None] * net.w2  # (..., n, hidden)
    dact *= hidden
    dact *= np.subtract(1.0, hidden, out=hidden)  # hidden is not read again
    gw1 = np.swapaxes(dact, -1, -2) @ z + 2.0 * l2_penalty * net.w1
    gb1 = np.add.reduce(dact, axis=-2)
    return loss, (gw1, gb1, gw2, gb2)


@dataclass
class _Members:
    """Training state of the members of a batch still training, one row each."""

    index: np.ndarray  # position of each row's member in the batch
    net: Network
    velocity: Network
    best: Network
    best_val: np.ndarray
    lr: np.ndarray
    prev_loss: np.ndarray
    stale: np.ndarray
    z_tr: np.ndarray
    y_tr: np.ndarray
    z_val: np.ndarray
    y_val: np.ndarray

    def keep(self, rows: np.ndarray) -> "_Members":
        """The members where the mask rows is true, copied."""

        def take(v):
            if isinstance(v, Network):
                return Network(*(p[rows] for p in v.params()))
            return v[rows]

        return _Members(*(take(getattr(self, f.name)) for f in fields(self)))


def _per_member(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """values (members,) shaped to broadcast against a stacked parameter."""
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _start(dataset: WindowDataset, hyper: TrainingConfig, seeds: list[int]):
    """A batch's starting state, and each member's norm stats.

    Each member's split is normalized once, straight into its slot of the
    stack.  Only the returned state holds the stacked inputs, so the rows of
    members that leave it are freed.
    """
    m = len(seeds)
    norms, nets, stacks = [], [], None
    for k, seed in enumerate(seeds):
        train_set, val_set = split_data(dataset, hyper.train_fraction, mix64(seed, 1))
        norm = norm_stats(train_set.features)
        norms.append(norm)
        nets.append(
            init_network(dataset.features.shape[1], hyper.hidden_units, mix64(seed, 2))
        )
        member = (norm.apply(train_set.features), train_set.targets,
                  norm.apply(val_set.features), val_set.targets)
        if stacks is None:
            stacks = [np.empty((m,) + a.shape) for a in member]
        for stack, a in zip(stacks, member):
            stack[k] = a
    z_tr, y_tr, z_val, y_val = stacks
    net = Network(*(np.stack(p) for p in zip(*(n.params() for n in nets))))
    state = _Members(
        index=np.arange(m),
        net=net,
        velocity=Network(*(np.zeros_like(p) for p in net.params())),
        best=net.copy(),
        best_val=mse(net, z_val, y_val),
        lr=np.full(m, hyper.learning_rate),
        prev_loss=np.full(m, np.inf),
        stale=np.zeros(m, dtype=np.int64),
        z_tr=z_tr, y_tr=y_tr, z_val=z_val, y_val=y_val,
    )
    return state, norms


def train_batch(
    dataset: WindowDataset, hyper: TrainingConfig, seeds: list[int]
) -> list[TrainedModel | TrainingDivergedError]:
    """Fit one model per seed, the members stacked into one array program.

    Returns, per seed in order, the parameters from its best-validation
    epoch, or the TrainingDivergedError that stopped it.  The split seed and
    the weight-init seed are both derived from the member's seed, so a
    single integer fully determines the model, whatever batch it is in.
    A member that stops or diverges leaves the stack, so its state never
    changes again.
    """
    s, norms = _start(dataset, hyper, seeds)
    results: list = [None] * len(seeds)

    def stop(s, rows, epochs_run):
        """Hand the members in rows their best-epoch models; the rest train on."""
        train_mse = mse(s.best, s.z_tr, s.y_tr)  # no copy of the rows' inputs
        for k in np.flatnonzero(rows):
            i = s.index[k]
            results[i] = TrainedModel(
                network=Network(*(p[k].copy() for p in s.best.params())),
                norm=norms[i],
                seed=seeds[i],
                train_mse=float(train_mse[k]),
                val_mse=float(s.best_val[k]),
                epochs_run=epochs_run,
            )
        return s.keep(~rows)

    def diverge(s, rows, epoch):
        for i in s.index[rows]:
            results[i] = TrainingDivergedError(epoch)
        return s.keep(~rows)

    # Pass max_epochs + 1 takes no step; it only ends the members still training.
    for epoch in range(1, hyper.max_epochs + 2):
        done = (s.stale >= hyper.patience) | (epoch > hyper.max_epochs)
        if done.any():
            s = stop(s, done, epoch - 1)
        if not len(s.index):
            break
        loss, grads = loss_and_gradient(s.net, s.z_tr, s.y_tr, hyper.l2_penalty)
        bad = ~np.isfinite(loss)
        if bad.any():
            s = diverge(s, bad, epoch)
            loss, grads = loss[~bad], tuple(g[~bad] for g in grads)
        s.lr = np.where(loss > s.prev_loss, s.lr * 0.5, s.lr)
        s.prev_loss = loss
        for param, v, g in zip(s.net.params(), s.velocity.params(), grads):
            v *= hyper.momentum  # v <- momentum * v - lr * g, then param += v
            v -= _per_member(s.lr, g) * g
            param += v

        val = mse(s.net, s.z_val, s.y_val)
        bad = ~np.isfinite(val)
        if bad.any():
            s, val = diverge(s, bad, epoch), val[~bad]
        better = val < s.best_val
        s.best_val = np.where(better, val, s.best_val)
        for b, p in zip(s.best.params(), s.net.params()):
            b[better] = p[better]
        s.stale = np.where(better, 0, s.stale + 1)
    return results


def train(dataset: WindowDataset, hyper: TrainingConfig, seed: int) -> TrainedModel:
    """Fit one model: the one-member case of ``train_batch``."""
    (result,) = train_batch(dataset, hyper, [seed])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result
