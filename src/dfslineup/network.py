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

Training inputs are stored feature-major, (members, inputs, rows), once
per batch.  The hidden layer is then (members, units, rows), so the bias
add, the sigmoid, the backward products and the hidden-bias gradient sum
all run along the contiguous row axis, not along the 19 units.
``predict_batch`` takes feature rows and transposes them itself.

The training state is float32 (``DTYPE``): the members' normalized inputs
and targets, weights, velocities, best weights, best validation MSE,
learning rates and last losses.  Normalization and the init draws run in
float64 and only their output is rounded, so the split and init streams
are float64's.  float32's ``exp`` overflows below about -88.7, so large
learning rates diverge: on the fixture 1e2 trains and 1e3 diverges.
``predict_batch`` stays float64: the float64 norm stats upcast the
weights, which keeps the ensemble's samples float64.

The ensemble uses fixed index batches of ``ensemble.B`` = 32 members, a
module constant and not a config key: it sets speed and memory, never a
result.  Larger batches pay numpy's per-call overhead fewer times, and B
trades the predict process's peak RSS against training time.  A member
that stops or diverges leaves the batch in place (``_Members.drop``): the
members after it move up and every array becomes its own prefix, so no
second copy of the state is made.  CHANGES.md holds the timings and peak
RSS behind these choices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import TrainingConfig
from .errors import TrainingDivergedError
from .seeds import mix64

STD_FLOOR = 1e-8
DTYPE = np.float32  # of the training state; see the module docstring


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


def split_data(n: int, train_fraction: float, seed: int):
    """Ascending (train, validation) row indices of a disjoint shuffled
    partition of n rows, deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(round(n * train_fraction)), 1), n - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _forward(net: Network, zt: np.ndarray):
    """Hidden activations (units, n) and predictions (n,) for normalized
    inputs zt, stored feature-major: (inputs, n).

    Works on one network, or on a stack with zt (members, inputs, n).
    Each member's slice gets the same BLAS call as a lone 2-D product.
    """
    # The sigmoid 1 / (1 + exp(-t)) runs op for op in one buffer: a fresh
    # array per op made it several times slower.
    hidden = net.w1 @ zt
    hidden += net.b1[..., None]
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    preds = (net.w2 @ hidden)[..., 0, :] + net.b2
    return hidden, preds


@np.errstate(over="ignore")
def predict_batch(net: Network, norm: NormStats, x: np.ndarray) -> np.ndarray:
    """Predictions for feature rows x (n, inputs).

    A feature constant over the training rows normalizes by ``STD_FLOOR``, so
    a prediction row that differs can overflow ``exp``; the sigmoid then
    reads its exact limit, 1 / (1 + inf) = 0.0.
    """
    _, preds = _forward(net, norm.apply(x).T)
    return preds


def mse(net: Network, zt: np.ndarray, y: np.ndarray):
    """Mean squared error on normalized inputs zt, feature-major
    (..., inputs, n); one value per stacked member."""
    _, preds = _forward(net, zt)
    return np.add.reduce((preds - y) ** 2, axis=-1) / zt.shape[-1]


def _sum_of_squares(w: np.ndarray):
    # Flattened to one contiguous last axis, each member sums like np.sum(w**2).
    return np.add.reduce((w**2).reshape(w.shape[:-2] + (-1,)), axis=-1)


def loss_and_gradient(net: Network, zt: np.ndarray, y: np.ndarray, l2_penalty: float):
    """MSE plus L2 weight penalty, with exact analytic gradients.

    Returns (loss, grads), grads a tuple in ``Network.params()`` order.
    Biases are excluded from the penalty.  zt holds normalized inputs
    feature-major, (inputs, n) for one network or, with a leading member
    axis, (members, inputs, n) for a stack of them.
    """
    n = zt.shape[-1]
    if n == 0:
        raise ValueError("empty batch")
    hidden, preds = _forward(net, zt)
    err = preds - y
    loss = np.add.reduce(err**2, axis=-1) / n + l2_penalty * (
        _sum_of_squares(net.w1) + _sum_of_squares(net.w2)
    )

    dpred = 2.0 * err / n  # (..., n)
    gw2 = dpred[..., None, :] @ np.swapaxes(hidden, -1, -2) + 2.0 * l2_penalty * net.w2
    gb2 = np.add.reduce(dpred, axis=-1, keepdims=True)
    dact = np.swapaxes(net.w2, -1, -2) * dpred[..., None, :]  # (..., hidden, n)
    dact *= hidden
    dact *= np.subtract(1.0, hidden, out=hidden)  # hidden is not read again
    gw1 = dact @ np.swapaxes(zt, -1, -2) + 2.0 * l2_penalty * net.w1
    gb1 = np.add.reduce(dact, axis=-1)
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
    zt_tr: np.ndarray  # (members, inputs, rows): normalized inputs, feature-major
    y_tr: np.ndarray
    zt_val: np.ndarray
    y_val: np.ndarray

    def drop(self, rows: np.ndarray) -> None:
        """Remove the members where the mask rows is true.  The others move
        up, in order, within each array, which then becomes its prefix view:
        only the members that move are copied, one array at a time."""
        kept = np.flatnonzero(~rows)
        first = int(np.argmax(rows))  # members before the first leaver stay put

        def compact(a):
            a[first : len(kept)] = a[kept[first:]]
            return a[: len(kept)]

        for f in fields(self):
            v = getattr(self, f.name)
            setattr(
                self, f.name,
                Network(*map(compact, v.params())) if isinstance(v, Network) else compact(v),
            )


def _per_member(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """values (members,) shaped to broadcast against a stacked parameter."""
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _start(x: np.ndarray, y: np.ndarray, hyper: TrainingConfig, seeds: list[int]):
    """A batch's starting state, and each member's norm stats.

    Each member's split of the window's rows x (targets y) is normalized
    in float64, once, and rounded straight into its float32 slot of the
    stack, feature-major.  Only the returned state holds the stacked
    inputs, so the rows of members that leave it are freed.
    """
    m = len(seeds)
    norms, nets, stacks = [], [], None
    for k, seed in enumerate(seeds):
        tr, val = split_data(len(x), hyper.train_fraction, mix64(seed, 1))
        x_tr = x[tr]
        norm = norm_stats(x_tr)
        norms.append(norm)
        nets.append(init_network(x.shape[1], hyper.hidden_units, mix64(seed, 2)))
        member = (norm.apply(x_tr).T, y[tr], norm.apply(x[val]).T, y[val])
        if stacks is None:
            stacks = [np.empty((m,) + a.shape, dtype=DTYPE) for a in member]
        for stack, a in zip(stacks, member):
            stack[k] = a
    zt_tr, y_tr, zt_val, y_val = stacks
    net = Network(*(np.stack(p, dtype=DTYPE) for p in zip(*(n.params() for n in nets))))
    state = _Members(
        index=np.arange(m),
        net=net,
        velocity=Network(*(np.zeros_like(p) for p in net.params())),
        best=net.copy(),
        best_val=mse(net, zt_val, y_val),
        lr=np.full(m, hyper.learning_rate, dtype=DTYPE),
        prev_loss=np.full(m, np.inf, dtype=DTYPE),
        stale=np.zeros(m, dtype=np.int64),
        zt_tr=zt_tr, y_tr=y_tr, zt_val=zt_val, y_val=y_val,
    )
    return state, norms


# Divergence is caught from the non-finite loss or validation MSE it leaves,
# not from the overflow warnings on the way there.
@np.errstate(over="ignore", invalid="ignore")
def train_batch(
    x: np.ndarray, y: np.ndarray, hyper: TrainingConfig, seeds: list[int]
) -> list[TrainedModel | TrainingDivergedError]:
    """Fit one model per seed on feature rows x and targets y, the members
    stacked into one array program.

    Returns, per seed in order, the parameters from its best-validation
    epoch, or the TrainingDivergedError that stopped it.  The split seed and
    the weight-init seed are both derived from the member's seed, so a
    single integer fully determines the model, whatever batch it is in.
    A member that stops or diverges leaves the stack, so its state never
    changes again.
    """
    s, norms = _start(x, y, hyper, seeds)
    results: list = [None] * len(seeds)

    def stop(rows, epochs_run):
        """Hand the members in rows their best-epoch models; the rest train on."""
        best = Network(*(p[rows] for p in s.best.params()))
        train_mse = mse(best, s.zt_tr[rows], s.y_tr[rows])
        for k, (i, val_mse) in enumerate(zip(s.index[rows], s.best_val[rows])):
            results[i] = TrainedModel(
                network=Network(*(p[k] for p in best.params())),
                norm=norms[i],
                seed=seeds[i],
                train_mse=float(train_mse[k]),
                val_mse=float(val_mse),
                epochs_run=epochs_run,
            )
        s.drop(rows)

    def diverge(rows, epoch):
        for i in s.index[rows]:
            results[i] = TrainingDivergedError(epoch)
        s.drop(rows)

    # Pass max_epochs + 1 takes no step; it only ends the members still training.
    for epoch in range(1, hyper.max_epochs + 2):
        done = (s.stale >= hyper.patience) | (epoch > hyper.max_epochs)
        if done.any():
            stop(done, epoch - 1)
        if not len(s.index):
            break
        loss, grads = loss_and_gradient(s.net, s.zt_tr, s.y_tr, hyper.l2_penalty)
        bad = ~np.isfinite(loss)
        if bad.any():
            diverge(bad, epoch)
            loss, grads = loss[~bad], tuple(g[~bad] for g in grads)
        s.lr = np.where(loss > s.prev_loss, s.lr * 0.5, s.lr)
        s.prev_loss = loss
        for param, v, g in zip(s.net.params(), s.velocity.params(), grads):
            v *= hyper.momentum  # v <- momentum * v - lr * g, then param += v
            v -= _per_member(s.lr, g) * g
            param += v

        val = mse(s.net, s.zt_val, s.y_val)
        bad = ~np.isfinite(val)
        if bad.any():
            diverge(bad, epoch)
            val = val[~bad]
        better = val < s.best_val
        s.best_val = np.where(better, val, s.best_val)
        for b, p in zip(s.best.params(), s.net.params()):
            b[better] = p[better]
        s.stale = np.where(better, 0, s.stale + 1)
    return results


def train(x: np.ndarray, y: np.ndarray, hyper: TrainingConfig, seed: int) -> TrainedModel:
    """Fit one model: the one-member case of ``train_batch``."""
    (result,) = train_batch(x, y, hyper, [seed])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result
