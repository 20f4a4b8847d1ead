"""Bagged model training and per-player FPTS prediction distributions.

Every member model gets its own seed derived from (master_seed, index), so
results do not depend on execution order, on the batch a member trained in
or on how many workers ran the training.  Reductions are always by model
index.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import TrainingConfig
from .errors import EnsembleTrainingError, TrainingDivergedError
from .network import TrainedModel, predict_batch, train_batch
from .seeds import mix64
from .special import central_interval

RETRY_SALT = 0x5EED
B = 32  # members per stacked batch; sets speed and memory only (see network.py)


@dataclass
class Ensemble:
    models: list[TrainedModel]
    master_seed: int

    def __len__(self):
        return len(self.models)


def model_seed(master_seed: int, index: int) -> int:
    return mix64(master_seed, index)


def _train_in_batches(run, x, y, hyper, seeds):
    """One result per seed, in order, from fixed batches of B consecutive seeds."""
    batches = [seeds[i : i + B] for i in range(0, len(seeds), B)]
    results = run(train_batch, repeat(x), repeat(y), repeat(hyper), batches)
    return [r for batch in results for r in batch]


def train_ensemble(
    x: np.ndarray,
    y: np.ndarray,
    n_models: int,
    master_seed: int,
    hyper: TrainingConfig,
    workers: int = 1,
) -> Ensemble:
    """Train n_models independently seeded/split models on a window's
    feature rows x and targets y.

    Members train in batches of B by index, whole batches spread over at
    most ``workers`` processes.  The models that diverge are retrained once,
    again in batches of B, each with a perturbed derived seed; a second
    divergence raises EnsembleTrainingError naming the smallest such index.
    """
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    seeds = [model_seed(master_seed, i) for i in range(n_models)]
    # A process pool forks all its workers up front, so it gets no more
    # than there are batches.
    n_workers = min(workers, -(-n_models // B))
    pool = None
    if n_workers > 1:
        # Imported only here: it loads multiprocessing, which a serial run
        # never needs.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=n_workers)
    with pool or nullcontext():
        run = pool.map if pool else map
        models = _train_in_batches(run, x, y, hyper, seeds)
        diverged = [
            i for i, m in enumerate(models) if isinstance(m, TrainingDivergedError)
        ]
        retry = [mix64(seeds[i], RETRY_SALT) for i in diverged]
        retried = _train_in_batches(run, x, y, hyper, retry)
    for i, m in zip(diverged, retried):
        if isinstance(m, TrainingDivergedError):
            raise EnsembleTrainingError(i)
        models[i] = m
    return Ensemble(models=models, master_seed=master_seed)


def sample_matrix(ensemble: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-model forward outputs for feature rows x, shape (n_models, n_players).

    Each seeded member yields one sample per player, so this matrix is the
    whole predictive distribution; every summary is a reduction over it.
    It is float64 on purpose, though the members trained in float32: the
    forward applies the float64 norm stats, which upcast the weights, so
    ``samples.npz`` and the optimizer's sums stay float64.
    """
    if x.shape[1] != ensemble.models[0].network.w1.shape[1]:
        raise ValueError("feature length does not match ensemble input size")
    return np.vstack([predict_batch(m.network, m.norm, x) for m in ensemble.models])


def predict_distribution(samples: np.ndarray, level: float = 0.95):
    """Per-player (mean, ci_low, ci_high) arrays over the sample matrix's columns."""
    ci_low, ci_high = central_interval(samples, level)
    # Each column reduced in contiguous memory sums in the same order as a
    # lone 1-D column would, which keeps the means bit-stable.
    return np.asfortranarray(samples).mean(axis=0), ci_low, ci_high


def lineup_prediction_interval(lineup_samples: np.ndarray, level: float = 0.95):
    """Mean and interval of the lineup total from its (n_models, 9) sample columns.

    Summing within a model draw preserves cross-player correlation, so the
    interval is not the sum of per-player intervals.
    """
    # Column-contiguous layout adds the players one at a time for each model,
    # in lineup order, whatever order numpy would pick for a row-major array.
    totals = np.asfortranarray(lineup_samples).sum(axis=1)
    lo, hi = central_interval(totals, level)
    return float(totals.mean()), float(lo), float(hi)
