"""Gradient-descent solver for the all-threshold margin factorization.

Evaluates the regularized hinge objective together with its exact
gradients for the user factors, item factors, and thresholds in one pass
over every (entry, threshold) term, and runs a monotone descent loop with
backtracking step control.  Also provides rating prediction and the
textual checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorModel, SparseRatingMatrix, check_grid, discretize_rows, row_dots
from .ingest import _format_rows, _read_header, _read_table, open_text

CHECKPOINT_MAGIC = "STMMMF"

# Step size below which backtracking gives up on finding a decrease.
_MIN_LR = 1e-18


@dataclass
class TrainTrace:
    """Objective history of one solve; objectives[0] is the initial value."""

    objectives: np.ndarray
    iterations: int
    converged: bool
    order_violations: int
    # Loss evaluations: the starting point plus one per finite trial model.
    kernel_calls: int


class HingeLoss:
    """Regularized all-threshold hinge objective of one fixed matrix y.

    The objective sums the smooth hinge h(T * (theta_r - x)) over every
    observed entry and every threshold level r, where T is +1 when r is at
    or above the entry's rating and -1 below it, plus reg/2 times the
    squared Frobenius norms of the factor matrices.  The terms are laid out
    threshold-major, one row of n_observed entries per level, so every
    elementwise pass runs over long contiguous rows.  With
    c = clip(z, 0, 1) the hinge sum is 0.5 * ||c - 1||^2 - sum(min(z, 0)),
    taken in two reductions.  What depends only on y, the sign matrix and
    the CSR matrices included, is built with the object, so a solve builds
    one and calls it per model.
    """

    def __init__(self, y: SparseRatingMatrix, reg: float):
        from scipy import sparse  # 0.15 s and 22 MB, paid only by commands that solve

        if reg < 0:
            raise ValueError("reg must be >= 0")
        self.y, self.reg = y, reg
        # Row r - 1 holds T(r, rating) of every entry.
        levels = np.arange(1, y.max_rating)
        self._t = np.where(levels[:, None] >= y.ratings, 1.0, -1.0)
        self._counts = y.user_counts()
        self._d = np.empty_like(self._t)
        # Entries are sorted by (user, item), so each user's entries form one
        # CSR row and the row pointer is the running count of entries per user.
        n = y.n_observed
        indptr = np.concatenate(([0], np.cumsum(self._counts)))
        by_user = sparse.csr_matrix((np.ones(n), np.arange(n), indptr), shape=(y.n_users, n))
        w = sparse.csr_matrix((np.zeros(n), y.items, indptr), shape=(y.n_users, y.n_items))
        # (w, w.T, by_user); w.T shares w's data, the per-entry weights.
        self._csr = w, w.T, by_user

    def __call__(self, model: FactorModel):
        """(value, (g_user, g_item, g_theta)); users or items with no
        observed ratings only receive the regularizer term (zero for
        thresholds)."""
        check_grid(model, self.y, "model", "training matrix")
        U, V, y, reg = model.user_factors, model.item_factors, self.y, self.reg
        x = row_dots(U, y.users, V, y.items)
        z = np.repeat(model.thresholds.T, self._counts, axis=1)
        z -= x
        z *= self._t
        # h(z) = 0.5 * (1 - c)^2 - min(z, 0) with c = clip(z, 0, 1);
        # c - 1 is exactly -(1 - c), so d * d has the bits of (1 - c)^2.
        d = np.clip(z, 0.0, 1.0, out=self._d)
        d -= 1.0
        hinge = 0.5 * np.einsum("ij,ij->", d, d) - np.minimum(z, 0.0, out=z).sum()
        value = float(hinge + 0.5 * reg * (np.sum(U**2) + np.sum(V**2)))
        # h'(z) = c - 1 = d, scaled in place by each term's sign.
        coef = d
        coef *= self._t
        # Each entry's weight adds its terms in threshold order from 0.0,
        # like the per-threshold reference loop.
        w, w_t, by_user = self._csr
        weights = w.data
        weights.fill(0.0)
        for row in coef:
            weights += row
        # One matvec per threshold sums each user's entries from 0.0 in
        # entry order; by_user @ coef.T would first copy coef transposed.
        g_theta = np.column_stack([by_user @ row for row in coef])
        return value, (reg * U - w @ V, reg * V - w_t @ U, g_theta)


def gd_step(model: FactorModel, grads, lr: float) -> FactorModel | None:
    """One descent step; thresholds follow the same update rule.  Returns
    None when the step overflows to non-finite values."""
    if lr <= 0:
        raise ValueError("lr must be > 0")
    params = (model.user_factors, model.item_factors, model.thresholds)
    stepped = [a - lr * g for a, g in zip(params, grads)]
    if not all(np.isfinite(a).all() for a in stepped):
        return None
    return FactorModel(*stepped)


def initial_model(y: SparseRatingMatrix, n_factors: int, seed: int) -> FactorModel:
    """Seeded starting point: small uniform factors, evenly spaced thresholds.

    Factor entries are uniform(-0.5, 0.5)/sqrt(d) so initial scores sit
    near zero; threshold r starts at r - R/2 for every user, centering the
    scale at the score origin.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_factors)
    u = rng.uniform(-0.5, 0.5, size=(y.n_users, n_factors)) * scale
    v = rng.uniform(-0.5, 0.5, size=(y.n_items, n_factors)) * scale
    # np.repeat's result owns its memory, so FactorModel takes it over uncopied
    row = np.arange(1, y.max_rating, dtype=np.float64) - y.max_rating / 2.0
    theta = np.repeat(row[None, :], y.n_users, axis=0)
    return FactorModel(u, v, theta)


def train(y: SparseRatingMatrix, cfg):
    """Fit factors and thresholds to the observed entries of y.

    cfg is a selftrain.SelfTrainConfig, which validates the fields read
    here: n_factors, reg, lr, gd_iters, tol and seed.  Runs at most
    cfg.gd_iters descent steps.  A step that would raise the objective, or
    that overflows to a non-finite model or objective, is retried with a
    halved step size, and later steps keep the last accepted size.  Stops
    early once the relative objective decrease falls below cfg.tol.
    Returns (model, trace) with a non-increasing accepted-objective
    sequence.  Raises ValueError when the initial objective is not finite
    (a reg so large that it overflows); every later gradient then comes
    from a finite objective and is finite.
    """
    if y.n_observed == 0:
        raise ValueError("cannot train on an empty rating matrix")
    model = initial_model(y, cfg.n_factors, cfg.seed)
    loss = HingeLoss(y, cfg.reg)
    # An overflowing initial objective is the error below and an overflowing
    # trial is rejected, so NumPy need not warn of either.
    with np.errstate(over="ignore", invalid="ignore"):
        current, grads = loss(model)
        kernel_calls = 1
        if not np.isfinite(current):
            raise ValueError(f"initial objective is not finite at reg={cfg.reg:g}")
        objectives = [current]
        lr = cfg.lr
        violations = 0
        converged = False
        for _ in range(cfg.gd_iters):
            while lr >= _MIN_LR:
                candidate = gd_step(model, grads, lr)
                if candidate is not None:
                    value, candidate_grads = loss(candidate)
                    kernel_calls += 1
                    if np.isfinite(value) and value <= current:
                        break
                lr *= 0.5
            else:  # no step size down to _MIN_LR lowers the objective
                break
            model, grads = candidate, candidate_grads
            objectives.append(value)
            violations += int(
                np.count_nonzero(np.any(np.diff(model.thresholds, axis=1) < 0, axis=1))
            )
            rel_drop = (current - value) / max(current, 1.0)
            current = value
            if rel_drop < cfg.tol:
                converged = True
                break
    return model, TrainTrace(np.array(objectives), len(objectives) - 1, converged, violations,
                             kernel_calls)


def predict_ratings(model: FactorModel, users, items, trained_on=None) -> np.ndarray:
    """Discretized predictions for (user, item) index arrays.

    If trained_on is given, users that had no observed training ratings
    fall back to the mid-scale rating ceil(R/2).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    out = discretize_rows(model.thresholds[users], model.scores(users, items)[:, None])[:, 0]
    if trained_on is not None:
        cold = trained_on.user_counts() == 0
        out[cold[users]] = (model.max_rating + 1) // 2
    return out


def save_checkpoint(model: FactorModel, target):
    """Write the textual checkpoint: header then U, V, theta rows."""
    with open_text(target, "w") as stream:
        stream.write(f"{CHECKPOINT_MAGIC} 1 {model.n_users} {model.n_items} "
                     f"{model.n_factors} {model.max_rating}\n")
        for block in (model.user_factors, model.item_factors, model.thresholds):
            stream.writelines(_format_rows(block.T, "%.17g"))


def load_checkpoint(source) -> FactorModel:
    """Read a checkpoint written by save_checkpoint.  A header with no user,
    item or factor, or with R below 2, is rejected before any row is read."""
    with open_text(source) as stream:
        n_users, n_items, n_factors, max_rating = _read_header(
            stream, CHECKPOINT_MAGIC, "checkpoint")
        if min(n_users, n_items, n_factors) < 1 or max_rating < 2:
            raise ValueError("not a recognized checkpoint header")
        u = _read_table(stream, n_factors, np.float64, n_rows=n_users)
        v = _read_table(stream, n_factors, np.float64, n_rows=n_items)
        theta = _read_table(stream, max_rating - 1, np.float64, n_rows=n_users)
        if any(map(str.strip, stream)):
            raise ValueError("trailing data after the declared checkpoint rows")
    return FactorModel(u, v, theta)
