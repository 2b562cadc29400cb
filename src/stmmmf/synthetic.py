"""Seeded synthetic rating data: planted low-rank models for recovery
tests and a desk-scale generator shaped like the classic 943 x 1682
movie-rating benchmark for end-to-end runs without the real files."""

from __future__ import annotations

import numpy as np

from .core import ROW_DOT_BLOCK, FactorModel, SparseRatingMatrix, _largest_remainder, discretize_rows
from .ingest import MAX_RATING, _format_rows


def planted_model(
    n_users: int,
    n_items: int,
    rank: int,
    seed: int,
    score_shift: float = 0.0,
    threshold_jitter: float = 0.0,
) -> FactorModel:
    """Random rank-`rank` factor model with per-user thresholds on the 1..5 scale.

    Base thresholds sit at r - R/2 - score_shift with R = 5, so a positive
    shift skews discretized ratings toward the top of the scale.  A positive
    threshold_jitter perturbs each user's cut points independently (rows
    kept sorted), giving users non-uniform personal rating scales that no
    plain bilinear-plus-bias model can absorb.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, size=(n_users, rank))
    v = rng.normal(0.0, 1.0, size=(n_items, rank)) / np.sqrt(rank)
    theta = np.tile(
        np.arange(1, MAX_RATING, dtype=np.float64) - MAX_RATING / 2.0 - score_shift,
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
    summing exactly to total.  Once every open row's share is below 1, the
    rest goes by largest remainder, ties to the lower row index."""
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
            # every share is below 1, so more than `left` rows have a
            # remainder and a row without room (share 0) is never picked
            return counts + _largest_remainder(frac, int(left))
        counts += add
        left -= int(add.sum())
    return counts


def synthetic_ratings_file(
    seed: int = 0,
    n_users: int = 943,
    n_items: int = 1682,
    n_ratings: int = 100_000,
    min_per_user: int = 20,
) -> str:
    """Tab-separated `user item rating timestamp` text at benchmark scale.

    Every user gets at least min_per_user ratings, every item at least
    one, user activity is long-tailed, ratings come from a noisy planted
    rank-2 model with an upward skew, and external ids are 1-based.
    Raises ValueError when the totals cannot be met.
    """
    if min_per_user > n_items:
        raise ValueError(f"min_per_user {min_per_user} exceeds n_items {n_items}")
    rng = np.random.default_rng(seed)
    model = planted_model(
        n_users, n_items, rank=2, seed=seed + 1,
        score_shift=0.55, threshold_jitter=0.35,
    )
    activity = rng.lognormal(0.0, 1.0, size=n_users)
    counts = _spread_counts(activity, n_ratings, min_per_user, n_items)

    # one guaranteed rating per item, round-robin over users: user i gets
    # items i, i + n_users, ..., the items it owns
    owner = np.arange(n_items) % n_users
    n_seeded = np.bincount(owner, minlength=n_users)
    short = np.flatnonzero(counts < n_seeded)
    if short.size:
        i = short[0]
        raise ValueError(
            f"cannot meet the totals: user {i} gets {counts[i]} ratings "
            f"but is seeded {n_seeded[i]} items"
        )

    users = np.empty(n_ratings, dtype=np.int64)
    items = np.empty(n_ratings, dtype=np.int64)
    pos = 0
    for i in range(n_users):
        already = np.arange(i, n_items, n_users)
        need = counts[i] - already.size
        perm = rng.permutation(n_items)
        extra = perm[owner[perm] != i][:need]
        mine = np.concatenate([already, extra])
        users[pos : pos + mine.size] = i
        items[pos : pos + mine.size] = mine
        pos += mine.size
    if pos != n_ratings:
        raise ValueError(f"placed {pos} ratings, not the requested {n_ratings}")

    scores = model.scores(users, items) + rng.normal(0.0, 0.7, size=n_ratings)
    # a block of rows at a time, so no (n_ratings, R - 1) threshold gather is built
    ratings = np.empty(n_ratings, dtype=np.int64)
    for start in range(0, n_ratings, ROW_DOT_BLOCK):
        rows = slice(start, start + ROW_DOT_BLOCK)
        ratings[rows] = discretize_rows(model.thresholds[users[rows]], scores[rows, None])[:, 0]
    del scores
    stamps = rng.integers(874_000_000, 894_000_000, size=n_ratings)

    users += 1
    items += 1
    return "".join(_format_rows([users, items, ratings, stamps], "%d", "\t"))
