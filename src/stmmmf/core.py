"""Domain types and math kernels for ordinal maximum-margin factorization.

Holds the sparse rating matrix, the factor/threshold model, and the pure
functions everything else composes: smooth hinge loss and its derivative,
the per-threshold sign indicator, score-to-rating discretization, and the
per-user average threshold gaps used for confidence bands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# Lower clamp for the average threshold gap; keeps confidence bands
# well-formed when a learned threshold row collapses or inverts.
GAP_EPS = 1e-6


class UnsupportedScaleError(ValueError):
    """Raised when an operation needs a wider rating scale than provided."""


@dataclass(frozen=True, eq=False)
class SparseRatingMatrix:
    """Observed (user, item, rating) triples over an n_users x n_items grid.

    Ratings live on the ordinal scale 1..max_rating; an absent pair means
    "unobserved" (0 is never stored).  Entries are kept sorted by
    (user, item) and the arrays are frozen after validation, so instances
    are safe to share across threads.
    """

    n_users: int
    n_items: int
    max_rating: int
    users: np.ndarray = field(repr=False)
    items: np.ndarray = field(repr=False)
    ratings: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_users < 1 or self.n_items < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.max_rating < 2:
            raise ValueError("rating scale needs max_rating >= 2")
        users = np.asarray(self.users, dtype=np.int64)
        items = np.asarray(self.items, dtype=np.int64)
        ratings = np.asarray(self.ratings, dtype=np.int64)
        if not (users.shape == items.shape == ratings.shape) or users.ndim != 1:
            raise ValueError("entry arrays must be 1-D and equal length")
        if users.size:
            if users.min() < 0 or users.max() >= self.n_users:
                raise ValueError("user index out of range")
            if items.min() < 0 or items.max() >= self.n_items:
                raise ValueError("item index out of range")
            if ratings.min() < 1 or ratings.max() > self.max_rating:
                raise ValueError("rating outside 1..max_rating")
        keys = users * self.n_items + items
        order = np.argsort(keys, kind="stable")
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("duplicate (user, item) pair")
        users, items, ratings = users[order], items[order], ratings[order]
        for arr in (users, items, ratings):
            arr.flags.writeable = False
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "ratings", ratings)

    @classmethod
    def from_triples(cls, n_users, n_items, max_rating, triples):
        """Build from an iterable of (user, item, rating) triples."""
        triples = list(triples)
        if triples:
            u, i, r = (np.array(col) for col in zip(*triples))
        else:
            u = i = r = np.empty(0, dtype=np.int64)
        return cls(n_users, n_items, max_rating, u, i, r)

    def __len__(self) -> int:
        return self.n_observed

    @property
    def n_observed(self) -> int:
        return int(self.users.size)

    @property
    def n_unobserved(self) -> int:
        return self.n_users * self.n_items - self.n_observed

    def observed_keys(self) -> np.ndarray:
        """Sorted flat keys user * n_items + item of the observed cells."""
        return self.users * self.n_items + self.items

    def contains(self, users, items) -> np.ndarray:
        """Element-wise observed test for (users, items) index arrays."""
        keys = np.asarray(users, dtype=np.int64) * self.n_items + np.asarray(items, dtype=np.int64)
        obs = self.observed_keys()
        if obs.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(obs, keys), obs.size - 1)
        return obs[pos] == keys

    def observed_mask(self) -> np.ndarray:
        """Dense boolean (n_users, n_items) mask of observed cells."""
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        mask[self.users, self.items] = True
        return mask

    def to_dense(self) -> np.ndarray:
        """Dense integer matrix with 0 for unobserved cells."""
        dense = np.zeros((self.n_users, self.n_items), dtype=np.int64)
        dense[self.users, self.items] = self.ratings
        return dense

    def rating_shares(self) -> np.ndarray:
        """Fraction of observed entries at each rating level (length R)."""
        if self.n_observed == 0:
            raise ValueError("no observed entries")
        counts = np.bincount(self.ratings, minlength=self.max_rating + 1)[1:]
        return counts / self.n_observed

    def user_counts(self) -> np.ndarray:
        """Observed ratings per user (length n_users)."""
        return np.bincount(self.users, minlength=self.n_users)

    def content_hash(self) -> str:
        """SHA-256 over the canonical entry listing; equal iff same content."""
        h = hashlib.sha256()
        h.update(f"{self.n_users} {self.n_items} {self.max_rating}\n".encode())
        h.update(self.users.tobytes())
        h.update(self.items.tobytes())
        h.update(self.ratings.tobytes())
        return h.hexdigest()

    def select(self, idx) -> "SparseRatingMatrix":
        """The entries picked by an index array or boolean mask, same grid."""
        return SparseRatingMatrix(
            self.n_users, self.n_items, self.max_rating,
            self.users[idx], self.items[idx], self.ratings[idx],
        )


@dataclass(frozen=True, eq=False)
class FactorModel:
    """User factors, item factors, and per-user rating thresholds.

    user_factors is (n_users, d), item_factors is (n_items, d), and
    thresholds is (n_users, R-1) holding each user's cut points between
    consecutive rating levels.  The virtual sentinels at -inf and +inf
    bounding the scale are implied by accessors, never stored.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        # np.array (not asarray) so freezing never back-propagates to the caller
        U = np.array(self.user_factors, dtype=np.float64)
        V = np.array(self.item_factors, dtype=np.float64)
        T = np.array(self.thresholds, dtype=np.float64)
        if U.ndim != 2 or V.ndim != 2 or T.ndim != 2:
            raise ValueError("factor and threshold arrays must be 2-D")
        if U.shape[1] != V.shape[1]:
            raise ValueError("user and item factor dimensions differ")
        if T.shape[0] != U.shape[0]:
            raise ValueError("threshold rows must match user count")
        if T.shape[1] < 1:
            raise ValueError("need at least one threshold column (R >= 2)")
        if not (np.isfinite(U).all() and np.isfinite(V).all() and np.isfinite(T).all()):
            raise ValueError("model contains non-finite values")
        for arr in (U, V, T):
            arr.flags.writeable = False
        object.__setattr__(self, "user_factors", U)
        object.__setattr__(self, "item_factors", V)
        object.__setattr__(self, "thresholds", T)

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def n_factors(self) -> int:
        return self.user_factors.shape[1]

    @property
    def max_rating(self) -> int:
        return self.thresholds.shape[1] + 1

    def check_matches(self, y: SparseRatingMatrix):
        """Raise ValueError unless y has this model's users, items and scale."""
        if self.n_users != y.n_users or self.n_items != y.n_items:
            raise ValueError("model and matrix dimensions differ")
        if self.max_rating != y.max_rating:
            raise ValueError("model and matrix rating scales differ")


@dataclass(frozen=True)
class Hyperparams:
    """Settings for one gradient-descent factorization solve."""

    reg: float = 1.0
    lr: float = 0.01
    max_iters: int = 300
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.reg <= 0:
            raise ValueError("reg must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        # max_iters = 0 is allowed: it returns the initial model untouched.
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


def smooth_hinge(z):
    """Smooth hinge loss: 0 for z >= 1, quadratic on (0, 1), linear below.

    Continuously differentiable, non-negative, non-increasing, 1-Lipschitz.
    Accepts scalars or arrays.  With c = clip(z, 0, 1) the loss is
    0.5 * (1 - c)^2 - min(z, 0), the same bits as the piecewise form.
    """
    z = np.asarray(z, dtype=np.float64)
    out = 0.5 * (1.0 - np.clip(z, 0.0, 1.0)) ** 2 - np.minimum(z, 0.0)
    return float(out) if out.ndim == 0 else out


def smooth_hinge_grad(z):
    """Derivative of smooth_hinge, clip(z, 0, 1) - 1; always in [-1, 0]."""
    z = np.asarray(z, dtype=np.float64)
    out = np.clip(z, 0.0, 1.0) - 1.0
    return float(out) if out.ndim == 0 else out


def t_indicator(r, y):
    """Sign of threshold r relative to rating y: +1 when r >= y, else -1."""
    r = np.asarray(r)
    y = np.asarray(y)
    out = np.where(r >= y, 1, -1)
    return int(out) if out.ndim == 0 else out


def discretize_rows(threshold_rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row-wise discretization: row k of scores uses threshold row k.

    threshold_rows is (B, R-1) and scores is (B, m).  Rating r covers the
    half-open interval (theta_{r-1}, theta_r] with sentinels -inf and +inf
    at the ends.  Thresholds are scanned in order and the first containing
    interval wins, which makes the result deterministic even if a row is
    unsorted and coincides with interval lookup when it is sorted.
    """
    theta = np.asarray(threshold_rows, dtype=np.float64)
    x = np.asarray(scores, dtype=np.float64)
    n_levels = theta.shape[1] + 1
    out = np.zeros(x.shape, dtype=np.int64)
    lo = np.full((x.shape[0], 1), -np.inf)
    for r in range(1, n_levels + 1):
        hi = theta[:, r - 1 : r] if r < n_levels else np.full((x.shape[0], 1), np.inf)
        hit = (out == 0) & (lo < x) & (x <= hi)
        out[hit] = r
        lo = hi
    return out


def discretize(model: FactorModel, i: int, x: float) -> int:
    """Rating level whose threshold interval of user i contains score x."""
    if not np.isfinite(x):
        raise ValueError("score must be finite")
    return int(discretize_rows(model.thresholds[i][None], np.array([[x]]))[0, 0])


def avg_threshold_gaps(model: FactorModel):
    """Per-user average threshold gap and how many rows hit the clamp.

    Returns (gaps, n_clamped) where gaps has shape (n_users,).  Needs at
    least two stored thresholds (rating scale >= 3); a collapsed or
    inverted row clamps to GAP_EPS so downstream confidence bands stay
    well-formed.
    """
    if model.max_rating < 3:
        raise UnsupportedScaleError(
            "average threshold gap needs a rating scale of at least 3"
        )
    raw = np.diff(model.thresholds, axis=1).mean(axis=1)
    n_clamped = int(np.count_nonzero(raw < GAP_EPS))
    return np.maximum(raw, GAP_EPS), n_clamped
