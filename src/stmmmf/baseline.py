"""Biased matrix-factorization baseline trained with squared loss.

A deliberately conventional recommender (global mean, user/item biases,
low-rank interaction) used to measure how much a non-margin learner gains
from retraining on the augmented matrices the self-training loop emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix, check_grid, row_dots
from .evaluation import MetricsSnapshot, snapshot

# Ratings per mini-batch of train_baseline's gradient passes.
BATCH_SIZE = 1024


@dataclass(frozen=True)
class BaselineConfig:
    n_factors: int = 100
    reg: float = 0.02
    epochs: int = 20
    lr: float = 0.005
    seed: int = 0

    def __post_init__(self):
        # epochs = 0 (a global-mean model) and n_factors = 0 stay valid.
        for name, low in (("n_factors", 0), ("epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0.0 <= self.reg < np.inf:
            raise ValueError("reg must be finite and >= 0")
        if not 0.0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")


@dataclass(frozen=True, eq=False)
class BaselineModel:
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_mean: float
    max_rating: int


def _loss(y, mu, bu, bi, p, q, reg):
    pred = mu + bu[y.users] + bi[y.items] + row_dots(p, y.users, q, y.items)
    sse = np.sum((y.ratings - pred) ** 2)
    return sse + reg * (
        np.sum(bu**2) + np.sum(bi**2) + np.sum(p**2) + np.sum(q**2)
    )


def _add_rows_at(target, index, rows):
    """np.add.at(target, index, rows) for a C-contiguous 2-D target, with the
    same bits, through ufunc.at's fast 1-D path: each flat cell still takes
    its adds in batch order."""
    k = target.shape[1]
    flat = target.reshape(-1)  # a view, as the target is C-contiguous
    np.add.at(flat, (index[:, None] * k + np.arange(k)).reshape(-1), rows.reshape(-1))


def train_baseline(y: SparseRatingMatrix, cfg: BaselineConfig) -> BaselineModel:
    """Fit by shuffled mini-batch gradient passes, deterministic per seed.

    The epoch loss is monitored and the learning rate is halved whenever
    it increases; an epoch loss that is not finite (an lr so large that
    the steps overflow) raises ValueError.  epochs=0 leaves a
    global-mean-only model (bias terms zero, factors at their tiny random
    start).
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
    # Overflow is reported as the error below, so NumPy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(y.n_observed)
            for start in range(0, order.size, BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                uu, ii = y.users[batch], y.items[batch]
                pu, qi = p[uu], q[ii]
                err = y.ratings[batch] - (mu + bu[uu] + bi[ii] + np.einsum("ij,ij->i", pu, qi))
                np.add.at(bu, uu, lr * (err - cfg.reg * bu[uu]))
                _add_rows_at(p, uu, lr * (err[:, None] * qi - cfg.reg * pu))
                np.add.at(bi, ii, lr * (err - cfg.reg * bi[ii]))
                _add_rows_at(q, ii, lr * (err[:, None] * pu - cfg.reg * qi))
            loss = _loss(y, mu, bu, bi, p, q, cfg.reg)
            if not np.isfinite(loss):
                raise ValueError("baseline loss is not finite")
            if loss > prev:
                lr *= 0.5
            prev = loss
    return BaselineModel(p, q, bu, bi, mu, y.max_rating)


def predict_baseline_many(model: BaselineModel, users, items) -> np.ndarray:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    pred = (
        model.global_mean
        + model.user_bias[users]
        + model.item_bias[items]
        + row_dots(model.user_factors, users, model.item_factors, items)
    )
    return np.clip(pred, 1.0, model.max_rating)


def rounds_experiment(matrices, test: SparseRatingMatrix, cfg: BaselineConfig):
    """Retrain from scratch on each matrix and score the fixed test set.

    Returns one MetricsSnapshot per round, in order.  `matrices` is any
    iterable and is read once, so a generator that loads each matrix when
    asked keeps only one in memory.  Matrices must share the test set's
    grid.  Entries on test cells (pseudo-ratings that augmentation put on
    held-out cells) are dropped before training.
    """
    out: list[MetricsSnapshot] = []
    for y in matrices:
        check_grid(y, test, "round matrix", "test set")
        keep = ~test.contains(y.users, y.items)
        y = y if keep.all() else y.select(keep)
        model = train_baseline(y, cfg)
        preds = predict_baseline_many(model, test.users, test.items)
        out.append(snapshot(np.column_stack([test.ratings, preds])))
    return out
