"""Seeded synthetic rating data: planted low-rank models for recovery
tests and a desk-scale generator shaped like the classic 943 x 1682
movie-rating benchmark for end-to-end runs without the real files."""

from __future__ import annotations

import numpy as np

from .core import FactorModel, SparseRatingMatrix, discretize_rows
from .ingest import _format_rows


def planted_model(
    n_users: int,
    n_items: int,
    rank: int,
    seed: int,
    max_rating: int = 5,
    score_shift: float = 0.0,
    threshold_jitter: float = 0.0,
) -> FactorModel:
    """Random rank-`rank` factor model with per-user rating thresholds.

    Base thresholds sit at r - R/2 - score_shift, so a positive shift
    skews discretized ratings toward the top of the scale.  A positive
    threshold_jitter perturbs each user's cut points independently (rows
    kept sorted), giving users non-uniform personal rating scales that no
    plain bilinear-plus-bias model can absorb.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, size=(n_users, rank))
    v = rng.normal(0.0, 1.0, size=(n_items, rank)) / np.sqrt(rank)
    theta = np.tile(
        np.arange(1, max_rating, dtype=np.float64) - max_rating / 2.0 - score_shift,
        (n_users, 1),
    )
    if threshold_jitter > 0.0:
        theta = np.sort(
            theta + rng.normal(0.0, threshold_jitter, size=theta.shape), axis=1
        )
    return FactorModel(u, v, theta)


def planted_matrix(
    model: FactorModel,
    observed_frac: float,
    seed: int,
    noise: float = 0.0,
) -> SparseRatingMatrix:
    """Observe a random fraction of the model's discretized score matrix."""
    rng = np.random.default_rng(seed)
    scores = model.user_factors @ model.item_factors.T
    if noise > 0.0:
        scores = scores + rng.normal(0.0, noise, size=scores.shape)
    dense = discretize_rows(model.thresholds, scores)
    n_cells = model.n_users * model.n_items
    n_obs = int(round(observed_frac * n_cells))
    flat = rng.permutation(n_cells)[:n_obs]
    users, items = np.divmod(flat, model.n_items)
    return SparseRatingMatrix(
        model.n_users, model.n_items, model.max_rating,
        users, items, dense[users, items],
    )


def _spread_counts(weights: np.ndarray, total: int, low: int, high: int) -> np.ndarray:
    """Integer counts proportional to weights, each within [low, high],
    summing exactly to total."""
    n = weights.size
    counts = np.full(n, low, dtype=np.int64)
    left = total - counts.sum()
    if left < 0:
        raise ValueError("total too small for the minimum per row")
    while left > 0:
        room = high - counts
        open_rows = room > 0
        if not open_rows.any():
            raise ValueError("total too large for the maximum per row")
        w = np.where(open_rows, weights, 0.0)
        frac = left * w / w.sum()
        add = np.minimum(np.floor(frac).astype(np.int64), room)
        if add.sum() == 0:
            # hand out the tail one unit at a time, largest share first
            order = np.argsort(-frac)
            for idx in order:
                if left == 0:
                    break
                if room[idx] > 0:
                    counts[idx] += 1
                    left -= 1
            continue
        counts += add
        left -= int(add.sum())
    return counts


def synthetic_ratings_file(
    seed: int = 0,
    n_users: int = 943,
    n_items: int = 1682,
    n_ratings: int = 100_000,
    min_per_user: int = 20,
    delimiter: str = "\t",
) -> str:
    """Tab-separated `user item rating timestamp` text at benchmark scale.

    Every user gets at least min_per_user ratings, every item at least
    one, user activity is long-tailed, ratings come from a noisy planted
    rank-2 model with an upward skew, and external ids are 1-based.
    """
    rng = np.random.default_rng(seed)
    model = planted_model(
        n_users, n_items, rank=2, seed=seed + 1,
        score_shift=0.55, threshold_jitter=0.35,
    )
    activity = rng.lognormal(0.0, 1.0, size=n_users)
    counts = _spread_counts(activity, n_ratings, min_per_user, n_items)

    # one guaranteed rating per item, round-robin over users
    seed_users = np.arange(n_items) % n_users
    seeded_by_user = [[] for _ in range(n_users)]
    for j, i in enumerate(seed_users):
        seeded_by_user[i].append(j)

    users = np.empty(n_ratings, dtype=np.int64)
    items = np.empty(n_ratings, dtype=np.int64)
    pos = 0
    for i in range(n_users):
        already = np.array(seeded_by_user[i], dtype=np.int64)
        need = counts[i] - already.size
        perm = rng.permutation(n_items)
        extra = perm[~np.isin(perm, already)][:need]
        mine = np.concatenate([already, extra])
        users[pos : pos + mine.size] = i
        items[pos : pos + mine.size] = mine
        pos += mine.size
    assert pos == n_ratings

    scores = np.einsum(
        "ij,ij->i", model.user_factors[users], model.item_factors[items]
    ) + rng.normal(0.0, 0.7, size=n_ratings)
    ratings = discretize_rows(model.thresholds[users], scores[:, None])[:, 0]
    stamps = rng.integers(874_000_000, 894_000_000, size=n_ratings)

    table = np.column_stack([users + 1, items + 1, ratings, stamps])
    return "".join(_format_rows(table, "%d", delimiter))
