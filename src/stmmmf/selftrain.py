"""Self-training loop around the margin factorization.

Each round retrains the factorization, collects unobserved cells whose
scores fall deep inside a rating interval (high confidence), drops
observed entries whose scores hug a threshold (low confidence), and
augments the training matrix with a skew-aware sample of the confident
predictions, recording per-round bookkeeping and test metrics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import (
    FactorModel, SparseRatingMatrix, _largest_remainder, avg_threshold_gaps, check_grid,
    discretize_rows,
)
from .evaluation import snapshot
from .trainer import predict_ratings, train

# Users per block of the dense score matmul in candidate_levels.
SCORE_BLOCK = 256

REPORT_CSV_COLUMNS = [
    "iter", "observed", "unobserved", "candidates", "augmented",
    "refined", "overlap", "retained_frac", "test_mae", "test_rmse",
]


@dataclass(frozen=True)
class SelfTrainConfig:
    """All knobs of the augment-and-refine loop.

    n_factors, reg, lr, gd_iters, tol and seed configure each round's solve
    (see trainer.train).  tau_augment and tau_refine are fractions of the
    per-user average threshold gap; sample_pct is the percentage of the
    candidate set sampled each round, capped at `cap` entries.  Zero
    switches a stage off: tau_refine = 0 refines nothing (the margin-0
    bands cover the line) and cap = 0 augments nothing.
    """

    n_factors: int = 10
    reg: float = 15.0
    lr: float = 0.002
    gd_iters: int = 150
    tol: float = 1e-5
    seed: int = 0
    tau_augment: float = 0.4999
    tau_refine: float = 0.10
    sample_pct: float = 100.0
    cap: int = 5000
    max_rounds: int = 50
    patience: int = 5

    def __post_init__(self):
        # gd_iters = 0 stays valid: every solve returns its initial model.
        for name, low in (("n_factors", 1), ("gd_iters", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("reg", "lr"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and >= 0")
        if not 0.0 <= self.tau_refine < self.tau_augment < 0.5:
            raise ValueError("need 0 <= tau_refine < tau_augment < 0.5")
        if not 0.0 < self.sample_pct <= 100.0:
            raise ValueError("sample_pct must lie in (0, 100]")
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class IterationReport:
    """Bookkeeping of one loop round.

    observed/unobserved describe the training matrix entering the round;
    overlap and retained_frac compare this round's candidate set with the
    previous one and are None on the first round.  steps, converged,
    objective (the final one), kernel_calls and order_violations come
    from the round's solve (see trainer.TrainTrace).  test_pseudo counts
    the test cells that carry a pseudo-rating in the round's input matrix;
    it is None without a test set.
    """

    iteration: int
    observed: int
    unobserved: int
    candidates: int
    augmented: int
    refined: int
    overlap: Optional[int]
    retained_frac: Optional[float]
    gap_clamps: int
    test_mae: Optional[float]
    test_rmse: Optional[float]
    test_pseudo: Optional[int]
    steps: int
    converged: bool
    objective: float
    kernel_calls: int
    order_violations: int

    def _record(self) -> dict:
        """The fields by name, iteration as "iter" and first."""
        fields = asdict(self)
        return {"iter": fields.pop("iteration"), **fields}

    def to_json(self) -> str:
        return json.dumps(self._record())

    def to_csv_row(self) -> list:
        def fmt(v):
            return "" if v is None else (f"{v:.6f}" if isinstance(v, float) else str(v))
        record = self._record()
        return [fmt(record[column]) for column in REPORT_CSV_COLUMNS]


@dataclass
class SelfTrainResult:
    model: FactorModel
    reports: list
    stop_reason: str


def candidate_levels(model: FactorModel, y: SparseRatingMatrix, tau_augment: float) -> np.ndarray:
    """Unobserved cells whose score sits at least tau_augment average gaps
    inside a rating interval, as an (n_users, n_items) grid holding that
    level there and 0 elsewhere, in np.min_scalar_type(max_rating).

    The band for rating r is (theta_{r-1} + g*tau, theta_r - g*tau], g the
    user's average threshold gap, scanned by core.discretize_rows: the
    bands for ratings 1 and R are one-sided, a score exactly at
    theta_r - g*tau counts, and the smallest matching rating wins.
    """
    if not 0.0 < tau_augment < 0.5:
        raise ValueError("tau_augment must lie in (0, 0.5)")
    check_grid(model, y, "model", "matrix")
    gaps, _ = avg_threshold_gaps(model)
    margin = gaps * tau_augment
    grid = np.empty((y.n_users, y.n_items), dtype=np.min_scalar_type(y.max_rating))
    for start in range(0, y.n_users, SCORE_BLOCK):
        rows = slice(start, start + SCORE_BLOCK)
        scores = model.user_factors[rows] @ model.item_factors.T
        grid[rows] = discretize_rows(model.thresholds[rows], scores, margin[rows])
    grid[y.users, y.items] = 0
    return grid


def low_confidence_observed(
    model: FactorModel, y: SparseRatingMatrix, tau_refine: float
) -> np.ndarray:
    """Observed cells whose score no band at tau_refine average gaps holds
    (bands as in candidate_levels), as a boolean mask over y's entries.

    On a sorted threshold row that means within tau_refine gaps of a stored
    threshold, apart from exact float ties.  On any row, a cell confident
    at a larger tau is never flagged, and at tau_refine = 0 no cell is.
    """
    if not 0.0 <= tau_refine < 0.5:
        raise ValueError("tau_refine must lie in [0, 0.5)")
    check_grid(model, y, "model", "matrix")
    gaps, _ = avg_threshold_gaps(model)
    scores = model.scores(y.users, y.items)[:, None]
    margin = gaps[y.users] * tau_refine
    return discretize_rows(model.thresholds[y.users], scores, margin)[:, 0] == 0


def skew_allocation(shares, total: int) -> np.ndarray:
    """Per-label quotas proportional to one minus each label's share.

    Labels common in the training set get smaller quotas.  The real-valued
    quotas total * (1 - Z_r) / sum_j (1 - Z_j) are rounded by largest
    remainder so the result sums exactly to `total`.
    """
    z = np.asarray(shares, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be >= 0")
    if z.ndim != 1 or z.size < 1 or np.any(z < 0):
        raise ValueError("shares must be a non-negative vector")
    if abs(z.sum() - 1.0) > 1e-6:
        raise ValueError("shares must sum to 1")
    weight = 1.0 - z
    denom = weight.sum()
    if denom <= 1e-12:
        raise ValueError("degenerate rating distribution: every share is 1")
    return _largest_remainder(total * weight / denom, total)


def sample_augment(
    levels: np.ndarray, shares, sample_pct: float, cap: int, rng
) -> SparseRatingMatrix:
    """Skew-aware sample of a candidate grid (see candidate_levels).

    Takes min(cap, floor(n * sample_pct / 100)) of the grid's n nonzero
    cells with per-label quotas from skew_allocation over the R = len(shares)
    labels.  Labels short on supply hand their leftover quota to the others
    in proportion to remaining supply, rounded by largest remainder as in
    skew_allocation.  Sampling within a label is uniform without replacement
    over its cells in row-major order.  Returns the sample as a matrix on
    the grid with max_rating R.
    """
    if not 0.0 < sample_pct <= 100.0:
        raise ValueError("sample_pct must lie in (0, 100]")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    n_levels, (n_users, n_items) = len(shares), levels.shape
    flat = levels.ravel()
    n = int(np.count_nonzero(flat))
    target = min(int(cap), int(np.floor(n * sample_pct / 100.0)))
    if target <= 0:
        return SparseRatingMatrix.from_triples(n_users, n_items, n_levels, [])
    supply = np.array([np.count_nonzero(flat == level) for level in range(1, n_levels + 1)])
    take = np.minimum(skew_allocation(shares, target), supply)
    left = target - int(take.sum())
    if left > 0:
        # target <= supply.sum(), so each label's share of left is at most
        # its room, and only a share with a fraction is rounded up
        avail = supply - take
        take += _largest_remainder(left * avail / int(avail.sum()), left)
    chosen = []
    for level in range(1, n_levels + 1):
        k = int(take[level - 1])
        if k == 0:
            continue
        pool = np.flatnonzero(flat == level)
        chosen.append(pool if k >= pool.size else rng.choice(pool, size=k, replace=False))
    keys = np.sort(np.concatenate(chosen))
    users, items = np.divmod(keys, n_items)
    return SparseRatingMatrix(n_users, n_items, n_levels, users, items, flat[keys])


def apply_augment(y: SparseRatingMatrix, selected: SparseRatingMatrix) -> SparseRatingMatrix:
    """Insert the selected candidate triples as observed entries; a triple
    on an observed cell raises ValueError (duplicate pair)."""
    if len(selected) == 0:
        return y
    return SparseRatingMatrix(
        y.n_users, y.n_items, y.max_rating,
        np.concatenate([y.users, selected.users]),
        np.concatenate([y.items, selected.items]),
        np.concatenate([y.ratings, selected.ratings]),
    )


def overlap_stats(prev: np.ndarray, cur: np.ndarray):
    """Exact-triple overlap of two candidate grids (see candidate_levels).

    A cell is retained when both grids hold the same nonzero level there.
    Returns (overlap count, fraction of the previous set retained); the
    fraction is 0 when the previous grid is empty.  Raises ValueError when
    the grids' shapes differ.
    """
    if prev.shape != cur.shape:
        raise ValueError(f"previous candidate grid {prev.shape} differs from current {cur.shape}")
    n_prev = int(np.count_nonzero(prev))
    if n_prev == 0:
        return 0, 0.0
    overlap = int(np.count_nonzero((prev == cur) & (cur != 0)))
    return overlap, overlap / n_prev


def check_inputs(y0: SparseRatingMatrix, test: Optional[SparseRatingMatrix] = None):
    """Raise ValueError unless selftrain_loop can run on y0 and test: the
    rating scale needs at least 3 levels for an average threshold gap, and
    a test set must share y0's grid and hold none of its cells."""
    if y0.max_rating < 3:
        raise ValueError("average threshold gap needs a rating scale of at least 3")
    if test is not None:
        check_grid(y0, test, "training matrix", "test set")
        if np.any(y0.contains(test.users, test.items)):
            raise ValueError("test matrix overlaps the training matrix")


def selftrain_loop(
    y0: SparseRatingMatrix,
    cfg: SelfTrainConfig,
    test: Optional[SparseRatingMatrix] = None,
    callback=None,
) -> SelfTrainResult:
    """Run the augment-and-refine rounds until a stop criterion fires.

    Every stop is read after a round: the candidate set came back empty,
    test MAE has risen strictly for cfg.patience consecutive rounds, the
    round emptied the training matrix, or it was round cfg.max_rounds.
    The test matrix is never read by training or modified.  `callback`, when
    given, is invoked after each round as callback(report, model, y_in, y_out).
    Inputs check_inputs rejects, and an empty y0, fail before any solve.
    """
    check_inputs(y0, test)
    y, prev_levels = y0, None  # prev_levels: the previous round's candidate grid
    reports: list[IterationReport] = []
    for iteration in range(1, cfg.max_rounds + 1):
        model, trace = train(y, cfg)
        _, n_clamped = avg_threshold_gaps(model)
        levels = candidate_levels(model, y, cfg.tau_augment)
        low = low_confidence_observed(model, y, cfg.tau_refine)
        rng = np.random.default_rng([cfg.seed, iteration])
        selected = sample_augment(levels, y.rating_shares(), cfg.sample_pct, cfg.cap, rng)
        y_next = apply_augment(y.select(~low), selected)
        overlap, retained = (
            (None, None) if prev_levels is None else overlap_stats(prev_levels, levels))
        test_mae = test_rmse = test_pseudo = None
        if test is not None:
            test_pseudo = int(y.contains(test.users, test.items).sum())
            if test.n_observed:
                preds = predict_ratings(model, test.users, test.items, trained_on=y)
                metrics = snapshot(np.column_stack([test.ratings, preds]))
                test_mae, test_rmse = metrics.mae, metrics.rmse
        report = IterationReport(
            iteration=iteration,
            observed=y.n_observed,
            unobserved=y.n_unobserved,
            candidates=int(np.count_nonzero(levels)),
            augmented=len(selected),
            refined=int(np.count_nonzero(low)),
            overlap=overlap,
            retained_frac=retained,
            gap_clamps=n_clamped,
            test_mae=test_mae,
            test_rmse=test_rmse,
            test_pseudo=test_pseudo,
            steps=trace.iterations,
            converged=trace.converged,
            objective=float(trace.objectives[-1]),
            kernel_calls=trace.kernel_calls,
            order_violations=trace.order_violations,
        )
        reports.append(report)
        if callback is not None:
            callback(report, model, y, y_next)
        prev_levels, y = levels, y_next
        if report.candidates == 0:
            return SelfTrainResult(model, reports, "no_candidates")
        # A tie or a fall resets the streak, so patience rising rounds
        # in a row means the last patience + 1 MAEs strictly rise.
        maes = [r.test_mae for r in reports[-cfg.patience - 1:]]
        if len(maes) > cfg.patience and None not in maes and all(
                a < b for a, b in zip(maes, maes[1:])):
            return SelfTrainResult(model, reports, "test_mae_degrading")
        if y.n_observed == 0:
            return SelfTrainResult(model, reports, "empty_training_set")
    return SelfTrainResult(model, reports, "max_rounds")
