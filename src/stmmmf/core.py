"""Domain types and math kernels for ordinal maximum-margin factorization.

Holds the sparse rating matrix, the factor/threshold model, and the pure
functions everything else composes: the grid check of two matrices or
models, blocked row dot products, score-to-rating discretization, the
per-user average threshold gaps used for confidence bands, and the
largest-remainder rounding that the sampler and the synthetic generator
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Lower clamp for the average threshold gap; keeps confidence bands
# well-formed when a learned threshold row collapses or inverts.
GAP_EPS = 1e-6

# Rows per block of the gathers in row_dots.
ROW_DOT_BLOCK = 4096

# Entries per block of SparseRatingMatrix's order check.
ORDER_CHECK_BLOCK = 65536


def _strictly_increasing(users: np.ndarray, items: np.ndarray, n_items: int) -> bool:
    """Whether keys users * n_items + items strictly increase, checked in
    blocks that overlap by one entry so no key array spans the input."""
    for start in range(0, users.size - 1, ORDER_CHECK_BLOCK):
        stop = start + ORDER_CHECK_BLOCK + 1
        keys = users[start:stop] * n_items + items[start:stop]
        if not (keys[1:] > keys[:-1]).all():
            return False
    return True


def _freeze(obj, **arrays):
    """Store each array read-only as obj's field of that name: the one
    ownership rule of the frozen SparseRatingMatrix and FactorModel.

    An array that owns its C-contiguous memory is taken over and made
    read-only in place: pass a copy if you will keep writing to yours.
    Any other array (a view, a strided or Fortran-order one) is copied first.
    """
    for name, arr in arrays.items():
        if arr.base is not None or not arr.flags.c_contiguous:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def row_dots(a: np.ndarray, a_rows, b: np.ndarray, b_rows) -> np.ndarray:
    """a[a_rows[j]] . b[b_rows[j]] for each j, as a float64 vector.

    Rows are gathered ROW_DOT_BLOCK at a time, so no (n, k) copy of either
    side is built.  A row's dot product does not depend on its block: the
    result has the bits of one einsum over the full gathers.
    """
    a_rows = np.asarray(a_rows, dtype=np.int64)
    b_rows = np.asarray(b_rows, dtype=np.int64)
    out = np.empty(a_rows.size)
    for start in range(0, a_rows.size, ROW_DOT_BLOCK):
        rows = slice(start, start + ROW_DOT_BLOCK)
        np.einsum("ij,ij->i", np.take(a, a_rows[rows], axis=0),
                  np.take(b, b_rows[rows], axis=0), out=out[rows])
    return out


@dataclass(frozen=True, eq=False)
class SparseRatingMatrix:
    """Observed (user, item, rating) triples over an n_users x n_items grid.

    Ratings live on the ordinal scale 1..max_rating; an absent pair means
    "unobserved" (0 is never stored).  Entries are kept sorted by
    (user, item) and the arrays are stored by _freeze after validation,
    so instances are safe to share across threads.  Int64 input already in
    strictly increasing (user, item) order is not re-sorted and follows
    _freeze's ownership rule; other dtypes and unsorted input are copied.
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
        if not _strictly_increasing(users, items, self.n_items):
            keys = users * self.n_items + items
            order = np.argsort(keys, kind="stable")
            if np.any(np.diff(keys[order]) == 0):
                raise ValueError("duplicate (user, item) pair")
            users, items, ratings = users[order], items[order], ratings[order]
        _freeze(self, users=users, items=items, ratings=ratings)

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
        import hashlib  # 3 ms and 3.5 MB (OpenSSL), paid only by callers that hash

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
    bounding the scale are implied by accessors, never stored.  Float64
    input follows _freeze's ownership rule; other dtypes are copied.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.user_factors, dtype=np.float64)
        V = np.asarray(self.item_factors, dtype=np.float64)
        T = np.asarray(self.thresholds, dtype=np.float64)
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
        _freeze(self, user_factors=U, item_factors=V, thresholds=T)

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

    def scores(self, users, items) -> np.ndarray:
        """Scores U[users] . V[items] of (user, item) index arrays."""
        return row_dots(self.user_factors, users, self.item_factors, items)


def check_grid(a, b, a_name: str, b_name: str):
    """Raise ValueError, naming both sides, unless a and b (matrices or
    models) share their users, items and rating scale."""
    grid_a, grid_b = ((m.n_users, m.n_items, m.max_rating) for m in (a, b))
    if grid_a != grid_b:
        raise ValueError(f"{a_name} grid {grid_a} differs from the {b_name}'s {grid_b}")


def discretize_rows(threshold_rows: np.ndarray, scores: np.ndarray, margin=0.0) -> np.ndarray:
    """Row-wise band lookup: row k of scores uses threshold row k.

    threshold_rows is (B, R-1), scores is (B, m) and margin is a scalar or
    one value per row.  Rating r's band is (theta_{r-1} + margin,
    theta_r - margin] with sentinels -inf and +inf at the ends.  Bands are
    scanned in order and the first that holds the score wins, so the result
    is deterministic even on an unsorted row; a score no band holds gets 0.
    At margin 0 the bands cover the line: this is interval lookup.
    """
    theta = np.asarray(threshold_rows, dtype=np.float64)
    x = np.asarray(scores, dtype=np.float64)
    margin = np.reshape(margin, (-1, 1))
    n_levels = theta.shape[1] + 1
    out = np.zeros(x.shape, dtype=np.int64)
    lo = np.full((x.shape[0], 1), -np.inf)
    for r in range(1, n_levels + 1):
        hi = theta[:, r - 1 : r] if r < n_levels else np.full((x.shape[0], 1), np.inf)
        hit = (out == 0) & (lo + margin < x) & (x <= hi - margin)
        out[hit] = r
        lo = hi
    return out


def avg_threshold_gaps(model: FactorModel):
    """Per-user average threshold gap and how many rows hit the clamp.

    Returns (gaps, n_clamped) where gaps has shape (n_users,).  Needs at
    least two stored thresholds (rating scale >= 3); a collapsed or
    inverted row clamps to GAP_EPS so downstream confidence bands stay
    well-formed.
    """
    if model.max_rating < 3:
        raise ValueError("average threshold gap needs a rating scale of at least 3")
    raw = np.diff(model.thresholds, axis=1).mean(axis=1)
    n_clamped = int(np.count_nonzero(raw < GAP_EPS))
    return np.maximum(raw, GAP_EPS), n_clamped


def _largest_remainder(quota: np.ndarray, total: int) -> np.ndarray:
    """Integer split of total by quota; the quotas must sum to total."""
    out = np.floor(quota).astype(np.int64)
    short = int(total - out.sum())
    rem = quota - np.floor(quota)
    # larger remainder first; ties favor the lower index
    order = np.argsort(-rem, kind="stable")
    out[order[:short]] += 1
    return out
