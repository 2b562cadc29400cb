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
    FactorModel,
    Hyperparams,
    SparseRatingMatrix,
    avg_threshold_gaps,
)
from .evaluation import snapshot
from .trainer import TrainingDivergedError, predict_ratings, train

REPORT_CSV_COLUMNS = [
    "iter", "observed", "unobserved", "candidates", "augmented",
    "refined", "overlap", "retained_frac", "test_mae", "test_rmse",
]


@dataclass(frozen=True)
class SelfTrainConfig:
    """All knobs of the augment-and-refine loop.

    tau_augment and tau_refine are fractions of the per-user average
    threshold gap; sample_pct is the percentage of the candidate set
    sampled each round, capped at `cap` entries.
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
        if self.n_factors < 1:
            raise ValueError("n_factors must be >= 1")
        if not 0.0 < self.tau_refine < self.tau_augment < 0.5:
            raise ValueError("need 0 < tau_refine < tau_augment < 0.5")
        if not 0.0 < self.sample_pct <= 100.0:
            raise ValueError("sample_pct must lie in (0, 100]")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        # Reuses the inner-solver validation for reg/lr/gd_iters/tol.
        self.hyperparams()

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(
            reg=self.reg, lr=self.lr, max_iters=self.gd_iters,
            tol=self.tol, seed=self.seed,
        )


@dataclass(frozen=True)
class IterationReport:
    """Bookkeeping of one loop round.

    observed/unobserved describe the training matrix entering the round;
    overlap and retained_frac compare this round's candidate set with the
    previous one and are None on the first round.  steps, converged,
    objective (the final one), kernel_calls and order_violations come
    from the round's solve (see trainer.TrainTrace).
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
    steps: int
    converged: bool
    objective: float
    kernel_calls: int
    order_violations: int

    def to_json(self) -> str:
        fields = asdict(self)
        return json.dumps({"iter": fields.pop("iteration"), **fields})

    def to_csv_row(self) -> list:
        def fmt(v):
            return "" if v is None else (f"{v:.6f}" if isinstance(v, float) else str(v))
        return [fmt(v) for v in (
            self.iteration, self.observed, self.unobserved, self.candidates,
            self.augmented, self.refined, self.overlap, self.retained_frac,
            self.test_mae, self.test_rmse,
        )]


@dataclass
class SelfTrainResult:
    model: Optional[FactorModel]
    reports: list
    stop_reason: str


def high_confidence_candidates(
    model: FactorModel, y: SparseRatingMatrix, tau_augment: float, block: int = 256
) -> SparseRatingMatrix:
    """Unobserved cells whose score sits at least tau_augment average gaps
    inside a rating interval, as a matrix on y's grid rated with that level.

    The interval for rating r is (theta_{r-1} + g*tau, theta_r - g*tau)
    with g the user's average threshold gap and virtual sentinels at
    -inf/+inf, so the bands for ratings 1 and R are one-sided.  The
    smallest matching rating wins when thresholds are unsorted.
    """
    if not 0.0 < tau_augment < 0.5:
        raise ValueError("tau_augment must lie in (0, 0.5)")
    model.check_matches(y)
    gaps, _ = avg_threshold_gaps(model)
    margin = gaps * tau_augment
    theta = model.thresholds
    n_levels = y.max_rating
    observed = y.observed_mask()
    out_u, out_i, out_r = [], [], []
    for start in range(0, y.n_users, block):
        stop = min(start + block, y.n_users)
        scores = model.user_factors[start:stop] @ model.item_factors.T
        m = margin[start:stop, None]
        assigned = np.zeros(scores.shape, dtype=np.int64)
        free = ~observed[start:stop]
        lo = np.full((stop - start, 1), -np.inf)
        for r in range(1, n_levels + 1):
            hi = theta[start:stop, r - 1 : r] if r < n_levels else np.full((stop - start, 1), np.inf)
            hit = (assigned == 0) & free & (scores > lo + m) & (scores < hi - m)
            assigned[hit] = r
            lo = hi
        bu, bi = np.nonzero(assigned)
        out_u.append(bu + start)
        out_i.append(bi)
        out_r.append(assigned[bu, bi])
    return SparseRatingMatrix(
        y.n_users, y.n_items, y.max_rating,
        np.concatenate(out_u) if out_u else np.empty(0, np.int64),
        np.concatenate(out_i) if out_i else np.empty(0, np.int64),
        np.concatenate(out_r) if out_r else np.empty(0, np.int64),
    )


def low_confidence_observed(
    model: FactorModel, y: SparseRatingMatrix, tau_refine: float
):
    """Observed cells whose score lies within tau_refine average gaps of
    any stored threshold of its user.

    Returns (users, items) index arrays.  Bands exist only around the
    R-1 stored thresholds; the virtual sentinels carry no band.
    """
    if not 0.0 < tau_refine < 0.5:
        raise ValueError("tau_refine must lie in (0, 0.5)")
    model.check_matches(y)
    gaps, _ = avg_threshold_gaps(model)
    scores = np.einsum(
        "ij,ij->i", model.user_factors[y.users], model.item_factors[y.items]
    )
    m = gaps[y.users] * tau_refine
    in_band = np.zeros(y.n_observed, dtype=bool)
    for r in range(1, y.max_rating):
        th = model.thresholds[y.users, r - 1]
        in_band |= (scores > th - m) & (scores < th + m)
    return y.users[in_band], y.items[in_band]


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


def _largest_remainder(quota: np.ndarray, total: int) -> np.ndarray:
    out = np.floor(quota).astype(np.int64)
    short = int(total - out.sum())
    rem = quota - np.floor(quota)
    # larger remainder first; ties favor the lower label index
    order = np.argsort(-rem, kind="stable")
    if short > 0:
        out[order[:short]] += 1
    elif short < 0:
        out[order[short:]] -= 1
    return out


def sample_augment(
    cands: SparseRatingMatrix, shares, sample_pct: float, cap: int, rng
) -> SparseRatingMatrix:
    """Skew-aware sample of the candidate set.

    Takes min(cap, floor(len(cands) * sample_pct / 100)) entries with
    per-label quotas from skew_allocation; labels short on supply hand
    their leftover quota to the others in proportion to remaining supply.
    Sampling within a label is uniform without replacement.
    """
    if not 0.0 < sample_pct <= 100.0:
        raise ValueError("sample_pct must lie in (0, 100]")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = len(cands)
    target = min(int(cap), int(np.floor(n * sample_pct / 100.0)))
    if target <= 0:
        return cands.select(np.empty(0, dtype=np.int64))
    n_levels = cands.max_rating
    supply = np.bincount(cands.ratings, minlength=n_levels + 1)[1:]
    take = np.minimum(skew_allocation(shares, target), supply)
    left = target - int(take.sum())
    if left > 0:
        # target <= supply.sum(), so avail.sum() >= left: the floored shares
        # plus one pass over the labels with room fill the whole shortfall.
        avail = supply - take
        frac = left * avail / int(avail.sum())
        add = np.floor(frac).astype(np.int64)
        shortfall = left - int(add.sum())
        rem = np.where(avail > add, frac - add, -1.0)
        for idx in np.argsort(-rem, kind="stable"):
            if shortfall == 0:
                break
            room = int(avail[idx] - add[idx])
            if room > 0:
                inc = min(room, shortfall)
                add[idx] += inc
                shortfall -= inc
        take += add
    chosen = []
    for level in range(1, n_levels + 1):
        k = int(take[level - 1])
        if k == 0:
            continue
        pool_idx = np.nonzero(cands.ratings == level)[0]
        chosen.append(
            pool_idx if k >= pool_idx.size else rng.choice(pool_idx, size=k, replace=False)
        )
    idx = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)
    return cands.select(idx)


def apply_augment(y: SparseRatingMatrix, selected: SparseRatingMatrix) -> SparseRatingMatrix:
    """Insert the selected candidate triples as observed entries."""
    if len(selected) == 0:
        return y
    if np.any(y.contains(selected.users, selected.items)):
        raise ValueError("augmentation collides with an observed entry")
    return SparseRatingMatrix(
        y.n_users, y.n_items, y.max_rating,
        np.concatenate([y.users, selected.users]),
        np.concatenate([y.items, selected.items]),
        np.concatenate([y.ratings, selected.ratings]),
    )


def apply_refine(y: SparseRatingMatrix, removals) -> SparseRatingMatrix:
    """Delete the given observed (users, items) cells from the matrix."""
    rem_users = np.asarray(removals[0], dtype=np.int64)
    rem_items = np.asarray(removals[1], dtype=np.int64)
    if rem_users.size == 0:
        return y
    if not np.all(y.contains(rem_users, rem_items)):
        raise ValueError("refinement targets an unobserved entry")
    rem_keys = np.unique(rem_users * y.n_items + rem_items)
    return y.select(~np.isin(y.observed_keys(), rem_keys))


def overlap_stats(prev: SparseRatingMatrix, cur: SparseRatingMatrix):
    """Exact-triple overlap with the previous candidate set.

    Returns (overlap count, fraction of the previous set retained); the
    fraction is 0 when the previous set is empty.
    """
    if len(prev) == 0:
        return 0, 0.0
    # One int64 key per (user, item, rating) triple; matrices reject
    # duplicate cells, so both key arrays are unique.
    prev_keys = prev.observed_keys() * (prev.max_rating + 1) + prev.ratings
    cur_keys = cur.observed_keys() * (cur.max_rating + 1) + cur.ratings
    overlap = int(np.intersect1d(prev_keys, cur_keys, assume_unique=True).size)
    return overlap, overlap / len(prev)


def selftrain_loop(
    y0: SparseRatingMatrix,
    cfg: SelfTrainConfig,
    test: Optional[SparseRatingMatrix] = None,
    callback=None,
) -> SelfTrainResult:
    """Run the augment-and-refine rounds until a stop criterion fires.

    Stops at cfg.max_rounds, when the candidate set comes back empty, or
    when test MAE has worsened for cfg.patience consecutive rounds.  The
    test matrix is never read by training or modified.  `callback`, when
    given, is invoked after each round as
    callback(report, model, y_in, y_out).

    Divergence of the inner solver ends the loop early; the reports
    collected so far are returned with stop_reason "diverged".
    """
    if test is not None:
        if (test.n_users, test.n_items, test.max_rating) != (
            y0.n_users, y0.n_items, y0.max_rating
        ):
            raise ValueError("test matrix shape differs from the training matrix")
        if np.any(y0.contains(test.users, test.items)):
            raise ValueError("test matrix overlaps the training matrix")
    y = y0
    reports: list[IterationReport] = []
    model = None
    prev_cands = None
    prev_mae = None
    worse_streak = 0
    stop_reason = "max_rounds"
    for iteration in range(1, cfg.max_rounds + 1):
        if y.n_observed == 0:
            stop_reason = "empty_training_set"
            break
        try:
            model, trace = train(y, cfg.hyperparams(), cfg.n_factors)
        except TrainingDivergedError:
            stop_reason = "diverged"
            break
        _, n_clamped = avg_threshold_gaps(model)
        cands = high_confidence_candidates(model, y, cfg.tau_augment)
        removals = low_confidence_observed(model, y, cfg.tau_refine)
        rng = np.random.default_rng([cfg.seed, iteration])
        selected = sample_augment(cands, y.rating_shares(), cfg.sample_pct, cfg.cap, rng)
        y_next = apply_refine(y, removals)
        y_next = apply_augment(y_next, selected)
        overlap = retained = None
        if prev_cands is not None:
            overlap, retained = overlap_stats(prev_cands, cands)
        test_mae = test_rmse = None
        if test is not None and test.n_observed:
            preds = predict_ratings(model, test.users, test.items, trained_on=y)
            metrics = snapshot(np.column_stack([test.ratings, preds]))
            test_mae, test_rmse = metrics.mae, metrics.rmse
        report = IterationReport(
            iteration=iteration,
            observed=y.n_observed,
            unobserved=y.n_unobserved,
            candidates=len(cands),
            augmented=len(selected),
            refined=int(np.asarray(removals[0]).size),
            overlap=overlap,
            retained_frac=retained,
            gap_clamps=n_clamped,
            test_mae=test_mae,
            test_rmse=test_rmse,
            steps=trace.iterations,
            converged=trace.converged,
            objective=float(trace.objectives[-1]),
            kernel_calls=trace.kernel_calls,
            order_violations=trace.order_violations,
        )
        reports.append(report)
        if callback is not None:
            callback(report, model, y, y_next)
        prev_cands = cands
        y = y_next
        if len(cands) == 0:
            stop_reason = "no_candidates"
            break
        if test_mae is not None:
            if prev_mae is not None and test_mae > prev_mae:
                worse_streak += 1
            else:
                worse_streak = 0
            prev_mae = test_mae
            if worse_streak >= cfg.patience:
                stop_reason = "test_mae_degrading"
                break
    return SelfTrainResult(model=model, reports=reports, stop_reason=stop_reason)
