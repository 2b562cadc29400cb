"""Biased matrix-factorization baseline trained with squared loss.

A deliberately conventional recommender (global mean, user/item biases,
low-rank interaction) used to measure how much a non-margin learner gains
from retraining on the augmented matrices the self-training loop emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix
from .evaluation import MetricsSnapshot, snapshot
from .trainer import TrainingDivergedError


@dataclass(frozen=True)
class BaselineConfig:
    n_factors: int = 100
    reg: float = 0.02
    epochs: int = 20
    lr: float = 0.005
    seed: int = 0
    batch_size: int = 1024


@dataclass(frozen=True, eq=False)
class BaselineModel:
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_mean: float
    max_rating: int


def _loss(y, mu, bu, bi, p, q, reg):
    pred = mu + bu[y.users] + bi[y.items] + np.einsum("ij,ij->i", p[y.users], q[y.items])
    sse = np.sum((y.ratings - pred) ** 2)
    return sse + reg * (
        np.sum(bu**2) + np.sum(bi**2) + np.sum(p**2) + np.sum(q**2)
    )


def _add_at(index, *updates):
    """np.add.at(target, index, values) for each (target, values) pair,
    with the same bits.

    Positions are applied in layers: layer k holds the k-th occurrence of
    every index, so its indices are distinct and a plain fancy-index add
    is exact, and repeated indices still add in batch order, as
    np.add.at does.
    """
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    slot = np.arange(index.size)
    rank = slot - np.maximum.accumulate(np.where(first, slot, 0))
    layers = np.split(order[np.argsort(rank, kind="stable")], np.cumsum(np.bincount(rank))[:-1])
    for pos in layers:
        at = index[pos]
        for target, values in updates:
            target[at] += values[pos]


def train_baseline(y: SparseRatingMatrix, cfg: BaselineConfig) -> BaselineModel:
    """Fit by shuffled mini-batch gradient passes, deterministic per seed.

    The epoch loss is monitored and the learning rate is halved whenever
    it increases.  epochs=0 leaves a global-mean-only model (bias terms
    zero, factors at their tiny random start).
    """
    if y.n_observed == 0:
        raise ValueError("cannot train the baseline on an empty matrix")
    rng = np.random.default_rng(cfg.seed)
    mu = float(y.ratings.mean())
    bu = np.zeros(y.n_users)
    bi = np.zeros(y.n_items)
    p = rng.normal(0.0, 0.01, size=(y.n_users, cfg.n_factors))
    q = rng.normal(0.0, 0.01, size=(y.n_items, cfg.n_factors))
    lr = cfg.lr
    prev = np.inf
    for _ in range(cfg.epochs):
        order = rng.permutation(y.n_observed)
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            uu, ii = y.users[batch], y.items[batch]
            pu, qi = p[uu], q[ii]
            err = y.ratings[batch] - (mu + bu[uu] + bi[ii] + np.einsum("ij,ij->i", pu, qi))
            _add_at(uu, (bu, lr * (err - cfg.reg * bu[uu])),
                    (p, lr * (err[:, None] * qi - cfg.reg * pu)))
            _add_at(ii, (bi, lr * (err - cfg.reg * bi[ii])),
                    (q, lr * (err[:, None] * pu - cfg.reg * qi)))
        loss = _loss(y, mu, bu, bi, p, q, cfg.reg)
        if not np.isfinite(loss):
            raise TrainingDivergedError("baseline loss is not finite")
        if loss > prev:
            lr *= 0.5
        prev = loss
    return BaselineModel(p, q, bu, bi, mu, y.max_rating)


def predict_baseline(model: BaselineModel, i: int, j: int) -> float:
    """Clamped prediction; ids outside the trained range fall back to the
    global mean plus whichever bias terms exist."""
    value = model.global_mean
    warm_user = 0 <= i < model.user_bias.size
    warm_item = 0 <= j < model.item_bias.size
    if warm_user:
        value += model.user_bias[i]
    if warm_item:
        value += model.item_bias[j]
    if warm_user and warm_item:
        value += float(model.user_factors[i] @ model.item_factors[j])
    return float(np.clip(value, 1.0, model.max_rating))


def predict_baseline_many(model: BaselineModel, users, items) -> np.ndarray:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    pred = (
        model.global_mean
        + model.user_bias[users]
        + model.item_bias[items]
        + np.einsum("ij,ij->i", model.user_factors[users], model.item_factors[items])
    )
    return np.clip(pred, 1.0, model.max_rating)


def strip_overlap(y: SparseRatingMatrix, test: SparseRatingMatrix) -> SparseRatingMatrix:
    """Drop entries of y sitting on test cells.

    Augmentation draws from everything unobserved in the training matrix,
    which includes held-out cells, so snapshots can carry pseudo-ratings
    at test positions.  Those must not reach a model scored on that test
    set; original training entries are never affected because the split
    is disjoint.
    """
    hit = y.contains(test.users, test.items)
    if not np.any(hit):
        return y
    return y.select(~np.isin(y.observed_keys(), test.observed_keys()))


def rounds_experiment(matrices, test: SparseRatingMatrix, cfg: BaselineConfig):
    """Retrain from scratch on each matrix and score the fixed test set.

    Returns one MetricsSnapshot per round, in order.  Matrices must not
    overlap the test set; see strip_overlap for sanitizing snapshots.
    """
    out: list[MetricsSnapshot] = []
    for y in matrices:
        if np.any(y.contains(test.users, test.items)):
            raise ValueError("round matrix overlaps the test set")
        model = train_baseline(y, cfg)
        preds = predict_baseline_many(model, test.users, test.items)
        out.append(snapshot(np.column_stack([test.ratings, preds])))
    return out
