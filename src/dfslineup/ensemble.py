"""Bagged model training and per-player FPTS prediction distributions.

Every member model gets its own seed derived from (master_seed, index), so
results do not depend on execution order or on how many workers ran the
training.  Reductions are always by model index.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import WindowDataset
from .errors import EnsembleTrainingError, TrainingDivergedError
from .network import TrainedModel, TrainingConfig, predict_batch, train
from .seeds import mix64

RETRY_SALT = 0x5EED


@dataclass
class Ensemble:
    models: list[TrainedModel]
    window_index: int
    master_seed: int

    def __len__(self):
        return len(self.models)


def model_seed(master_seed: int, index: int) -> int:
    return mix64(master_seed, index)


def _train_member(args):
    dataset, hyper, master_seed, index = args
    seed = model_seed(master_seed, index)
    try:
        return index, train(dataset, hyper, seed)
    except TrainingDivergedError:
        pass
    try:
        return index, train(dataset, hyper, mix64(seed, RETRY_SALT))
    except TrainingDivergedError:
        raise EnsembleTrainingError(index) from None


def train_ensemble(
    dataset: WindowDataset,
    n_models: int,
    master_seed: int,
    hyper: TrainingConfig,
    workers: int = 1,
) -> Ensemble:
    """Train n_models independently seeded/split models on one window.

    A model that diverges is retrained once with a perturbed derived seed;
    a second divergence raises EnsembleTrainingError naming the index.
    """
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    tasks = [(dataset, hyper, master_seed, i) for i in range(n_models)]
    if workers <= 1:
        results = [_train_member(t) for t in tasks]
    else:
        chunk = max(1, n_models // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_train_member, tasks, chunksize=chunk))
    models = [m for _, m in sorted(results, key=lambda r: r[0])]
    return Ensemble(models=models, window_index=dataset.window_index, master_seed=master_seed)


def sample_matrix(ensemble: Ensemble, window: WindowDataset) -> np.ndarray:
    """Per-model forward outputs for a prediction window, shape (n_models, n_players).

    Each seeded member yields one sample per player, so this matrix is the
    whole predictive distribution; every summary is a reduction over it.
    """
    if window.has_targets:
        raise ValueError("sample_matrix expects a prediction window")
    if window.features.shape[1] != ensemble.models[0].network.w1.shape[1]:
        raise ValueError("feature length does not match ensemble input size")
    return np.vstack(
        [predict_batch(m.network, m.norm, window.features) for m in ensemble.models]
    )


def _central_interval(samples: np.ndarray, level: float):
    if not 0.0 < level < 1.0:
        raise ValueError(f"level {level} outside (0, 1)")
    alpha = (1.0 - level) / 2.0
    return np.quantile(samples, [alpha, 1.0 - alpha], axis=0, method="linear")


def predict_distribution(samples: np.ndarray, level: float = 0.95):
    """Per-player (mean, ci_low, ci_high) arrays over the sample matrix's columns."""
    ci_low, ci_high = _central_interval(samples, level)
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
    lo, hi = _central_interval(totals, level)
    return float(totals.mean()), float(lo), float(hi)
