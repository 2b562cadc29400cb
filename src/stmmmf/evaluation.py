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
    n: int


def _as_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("metrics need at least one (truth, prediction) pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2)")
    return arr


def mae(pairs) -> float:
    """Mean absolute error over (truth, prediction) pairs."""
    arr = _as_pairs(pairs)
    return float(np.abs(arr[:, 0] - arr[:, 1]).mean())


def rmse(pairs) -> float:
    """Root mean squared error over (truth, prediction) pairs."""
    arr = _as_pairs(pairs)
    return float(np.sqrt(((arr[:, 0] - arr[:, 1]) ** 2).mean()))


def snapshot(pairs) -> MetricsSnapshot:
    arr = _as_pairs(pairs)
    return MetricsSnapshot(mae=mae(arr), rmse=rmse(arr), n=arr.shape[0])


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (actual, predicted) rating pairs on a 1..max_rating scale.

    counts[a - 1, p - 1] is the number of pairs with actual rating a and
    predicted rating p.
    """

    counts: np.ndarray
    max_rating: int

    def count(self, actual: int, predicted: int) -> int:
        return int(self.counts[actual - 1, predicted - 1])

    def row_total(self, actual: int) -> int:
        return int(self.counts[actual - 1].sum())

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(pairs, max_rating: int) -> ConfusionMatrix:
    """Tally (actual, predicted) pairs into an R x R count grid."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    counts = np.zeros((max_rating, max_rating), dtype=np.int64)
    if arr.size:
        if arr.min() < 1 or arr.max() > max_rating:
            raise ValueError("rating outside 1..max_rating")
        np.add.at(counts, (arr[:, 0] - 1, arr[:, 1] - 1), 1)
    return ConfusionMatrix(counts, max_rating)


def hr_at_k(cm: ConfusionMatrix, actual: int, k: int):
    """Fraction of an actual-rating row predicted at ordinal distance k.

    Returns None when the distance is not applicable: no rating at
    distance k from `actual` exists on the scale (one-sided distances
    count as applicable), or the row has no pairs at all.
    """
    if not 1 <= actual <= cm.max_rating:
        raise ValueError("actual rating outside the scale")
    if k < 0:
        raise ValueError("k must be >= 0")
    targets = {actual - k, actual + k}
    targets = [p for p in targets if 1 <= p <= cm.max_rating]
    if not targets:
        return None
    total = cm.row_total(actual)
    if total == 0:
        return None
    hits = sum(cm.count(actual, p) for p in targets)
    return hits / total


def hr_table(cm: ConfusionMatrix):
    """Per-actual-rating list of HR values for k = 0..R-1 (None where
    the distance is inapplicable)."""
    return [
        [hr_at_k(cm, actual, k) for k in range(cm.max_rating)]
        for actual in range(1, cm.max_rating + 1)
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
