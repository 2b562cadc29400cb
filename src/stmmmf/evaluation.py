"""Metrics and experiment protocol: MAE, RMSE, confusion counts, hit rates
at ordinal distance K, and the seeded train/test split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix


@dataclass(frozen=True)
class MetricsSnapshot:
    mae: float
    rmse: float


def snapshot(pairs) -> MetricsSnapshot:
    """Mean absolute and root mean squared error over (truth, prediction)
    pairs."""
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("metrics need at least one (truth, prediction) pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2)")
    err = arr[:, 0] - arr[:, 1]
    return MetricsSnapshot(mae=float(np.abs(err).mean()), rmse=float(np.sqrt((err**2).mean())))


def confusion(pairs, max_rating: int) -> np.ndarray:
    """Tally (actual, predicted) pairs into an R x R int64 count grid:
    cm[a - 1, p - 1] counts the pairs with actual rating a and predicted
    rating p."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    cm = np.zeros((max_rating, max_rating), dtype=np.int64)
    if arr.size:
        if arr.min() < 1 or arr.max() > max_rating:
            raise ValueError("rating outside 1..max_rating")
        np.add.at(cm, (arr[:, 0] - 1, arr[:, 1] - 1), 1)
    return cm


def hr_at_k(cm: np.ndarray, actual: int, k: int):
    """Fraction of an actual-rating row of the count grid `cm` predicted
    at ordinal distance k.

    Returns None when the distance is not applicable: no rating at
    distance k from `actual` exists on the scale (one-sided distances
    count as applicable), or the row has no pairs at all.
    """
    max_rating = len(cm)
    if not 1 <= actual <= max_rating:
        raise ValueError("actual rating outside the scale")
    if k < 0:
        raise ValueError("k must be >= 0")
    targets = {actual - k, actual + k}
    targets = [p for p in targets if 1 <= p <= max_rating]
    if not targets:
        return None
    row = cm[actual - 1]
    total = int(row.sum())
    if total == 0:
        return None
    hits = sum(int(row[p - 1]) for p in targets)
    return hits / total


def hr_table(cm: np.ndarray):
    """Per-actual-rating list of HR values for k = 0..R-1 (None where
    the distance is inapplicable)."""
    return [
        [hr_at_k(cm, actual, k) for k in range(len(cm))]
        for actual in range(1, len(cm) + 1)
    ]


def split(y: SparseRatingMatrix, train_frac: float, seed: int):
    """Seeded uniform partition of the observed entries.

    The train part gets round(train_frac * n_observed) entries; train and
    test are disjoint and jointly exhaustive.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    n = y.n_observed
    n_train = int(np.floor(train_frac * n + 0.5))
    order = np.random.default_rng(seed).permutation(n)
    take = np.zeros(n, dtype=bool)
    take[order[:n_train]] = True
    return y.select(take), y.select(~take)
