import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oracle import dense
from stmmmf.core import FactorModel, SparseRatingMatrix, avg_threshold_gaps, discretize_rows
from stmmmf import selftrain, trainer
from stmmmf.evaluation import MetricsSnapshot, split
from stmmmf.selftrain import (
    SCORE_BLOCK,
    SelfTrainConfig,
    apply_augment,
    candidate_levels,
    low_confidence_observed,
    overlap_stats,
    sample_augment,
    selftrain_loop,
    skew_allocation,
)
from stmmmf.synthetic import planted_matrix, planted_model
from stmmmf.trainer import train

UNIT_THETA = [1.0, 2.0, 3.0, 4.0]  # average gap exactly 1


def band_model(scores, observed_triples=(), n_users=1):
    """d=1 model whose user-0 scores against items equal `scores`."""
    scores = np.asarray(scores, dtype=np.float64)
    u = np.ones((n_users, 1))
    v = scores[:, None]
    theta = np.tile(UNIT_THETA, (n_users, 1))
    model = FactorModel(u, v, theta)
    y = SparseRatingMatrix.from_triples(n_users, scores.size, 5, observed_triples)
    return model, y


def found_levels(grid):
    """{(user, item): level} of a candidate grid's nonzero cells."""
    return {(u, i): grid[u, i] for u, i in zip(*np.nonzero(grid))}


def cands(triples, n_items=10, max_rating=5):
    if triples:
        u, i, r = (np.array(c) for c in zip(*triples))
    else:
        u = i = r = np.empty(0, dtype=np.int64)
    return SparseRatingMatrix(10, n_items, max_rating, u, i, r)


# ------------------------------------------------------------ candidate bands

def test_high_confidence_band_examples():
    model, y = band_model([2.5, 2.1, 0.0])
    grid = candidate_levels(model, y, 0.25)
    assert grid.shape == (y.n_users, y.n_items)
    assert grid.dtype == np.min_scalar_type(y.max_rating)
    found = found_levels(grid)
    assert found[(0, 0)] == 3      # 2.25 < 2.5 < 2.75
    assert (0, 1) not in found     # 2.1 <= 2.25
    assert found[(0, 2)] == 1      # -inf < 0 < 0.75


def test_high_confidence_excludes_observed():
    model, y = band_model([2.5, 2.5], observed_triples=[(0, 0, 3)])
    grid = candidate_levels(model, y, 0.25)
    assert list(np.nonzero(grid)[1]) == [1]


def test_high_confidence_top_band_one_sided():
    model, y = band_model([4.2, 6.0])
    found = found_levels(candidate_levels(model, y, 0.25))
    assert (0, 0) not in found     # 4.2 <= 4 + 0.25
    assert found[(0, 1)] == 5      # 6.0 > 4.25, one-sided top band


def test_candidate_levels_peak_allocation_is_the_grid_and_a_few_blocks():
    """Building the candidate grid allocates at most the 1-byte grid and
    four float64 score blocks (2.6 MB here; it reads about 1.9 MB), however
    many candidates the grid holds: each block's levels go straight into
    the grid and the observed cells are zeroed by a scatter, so no
    per-candidate array and no dense mask is built.  The triple-matrix
    build it replaced (flat indices per block, concatenated and split by
    divmod into int64 columns) peaked at 13.9 MB on these 514,055
    candidates."""
    rng = np.random.default_rng(0)
    n_users, n_items = 2048, 256
    model = FactorModel(rng.normal(size=(n_users, 3)), rng.normal(size=(n_items, 3)),
                        np.tile([-1.5, -0.5, 0.5, 1.5], (n_users, 1)))
    y = SparseRatingMatrix(n_users, n_items, 5, np.arange(n_users),
                           np.zeros(n_users, dtype=np.int64), np.full(n_users, 3))
    tracemalloc.start()
    try:
        grid = candidate_levels(model, y, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.dtype == np.uint8 and grid.shape == (n_users, n_items)
    assert np.count_nonzero(grid) == 514_055
    assert peak <= grid.nbytes + 4 * SCORE_BLOCK * n_items * 8


def test_high_confidence_tau_validated():
    model, y = band_model([2.5])
    for tau in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            candidate_levels(model, y, tau)


def test_candidates_self_consistent_with_discretize():
    rng = np.random.default_rng(0)
    truth = planted_model(15, 12, rank=2, seed=1)
    y = planted_matrix(truth, observed_frac=0.4, seed=2)
    model = FactorModel(rng.normal(0, 0.8, (15, 3)), rng.normal(0, 0.8, (12, 3)),
                        np.sort(rng.normal(0, 1.5, (15, 4)), axis=1))
    found = found_levels(candidate_levels(model, y, 0.2))
    assert len(found) > 0
    for (u, i), r in found.items():
        score = float(model.user_factors[u] @ model.item_factors[i])
        assert discretize_rows(model.thresholds[u:u + 1], [[score]])[0, 0] == r


# ----------------------------------------------------------- refinement bands

def test_low_confidence_band_examples():
    triples = [(0, 0, 2), (0, 1, 3), (0, 2, 1)]
    model, y = band_model([2.05, 2.5, 0.95], observed_triples=triples)
    low = low_confidence_observed(model, y, 0.1)
    flagged = set(zip(y.users[low], y.items[low]))
    assert (0, 0) in flagged       # 1.9 < 2.05 < 2.1
    assert (0, 1) not in flagged   # no band holds 2.5
    assert (0, 2) in flagged       # 0.9 < 0.95 < 1.1


def test_low_confidence_only_observed_cells():
    model, y = band_model([2.05, 2.05], observed_triples=[(0, 1, 2)])
    low = low_confidence_observed(model, y, 0.1)
    assert list(y.items[low]) == [1]


def test_bands_disjoint_when_gaps_uniform():
    # uniform gap equals the average gap, so the open intervals of the
    # augment band and any refine strip cannot intersect when tau2 < tau1
    rng = np.random.default_rng(1)
    scores = rng.uniform(-1, 6, 400)
    model, y_empty = band_model(scores)
    tau1, tau2 = 0.3, 0.15
    hi = candidate_levels(model, y_empty, tau1)
    all_cells = [(0, j, 1) for j in range(scores.size)]
    y_full = SparseRatingMatrix.from_triples(1, scores.size, 5, all_cells)
    low = low_confidence_observed(model, y_full, tau2)
    assert set(np.nonzero(hi)[1]).isdisjoint(set(y_full.items[low]))


def test_band_edges_follow_the_half_open_rule():
    # band 3 at tau 0.25 is (2.25, 2.75]: its right edge is a candidate, and
    # its left edge is held by no band, so an observed cell there is refined
    model, y_empty = band_model([2.75, 2.25])
    found = found_levels(candidate_levels(model, y_empty, 0.25))
    assert list(found) == [(0, 0)] and list(found.values()) == [3]
    y_full = SparseRatingMatrix.from_triples(1, 2, 5, [(0, 0, 3), (0, 1, 3)])
    assert list(y_full.items[low_confidence_observed(model, y_full, 0.25)]) == [1]


def open_scan_candidates(model, y, tau):
    """Reference: the open banded scan, (theta_{r-1} + m, theta_r - m) with
    m = tau * gap, over unobserved cells, as a dense level matrix."""
    gaps, _ = avg_threshold_gaps(model)
    margin = gaps[:, None] * tau
    scores = model.user_factors @ model.item_factors.T
    n_levels = model.max_rating
    assigned = np.zeros(scores.shape, dtype=np.int64)
    free = dense(y) == 0
    lo = np.full((model.n_users, 1), -np.inf)
    for r in range(1, n_levels + 1):
        hi = model.thresholds[:, r - 1 : r] if r < n_levels else np.full((model.n_users, 1), np.inf)
        hit = (assigned == 0) & free & (scores > lo + margin) & (scores < hi - margin)
        assigned[hit] = r
        lo = hi
    return assigned


def threshold_loop_refinement(model, y, tau):
    """Reference: observed cells within tau gaps of any stored threshold."""
    gaps, _ = avg_threshold_gaps(model)
    scores = np.einsum("ij,ij->i", model.user_factors[y.users], model.item_factors[y.items])
    m = gaps[y.users] * tau
    in_band = np.zeros(y.n_observed, dtype=bool)
    for r in range(1, y.max_rating):
        th = model.thresholds[y.users, r - 1]
        in_band |= (scores > th - m) & (scores < th + m)
    return y.users[in_band], y.items[in_band]


def random_band_instance(seed, sort_rows):
    """Random 30 x 400 model whose threshold rows have non-uniform positive
    gaps, and a 30 % observed matrix; unless sort_rows, every other row has
    its middle thresholds swapped (out of order, same average gap)."""
    n_users, n_items = 30, 400
    rng = np.random.default_rng(seed)
    theta = np.cumsum(rng.uniform(0.2, 2.0, (n_users, 4)), axis=1) - 3.0
    if not sort_rows:
        theta[::2, [1, 2]] = theta[::2, [2, 1]]
    model = FactorModel(rng.normal(0, 1.2, (n_users, 3)), rng.normal(0, 1.2, (n_items, 3)), theta)
    users, items = np.nonzero(rng.random((n_users, n_items)) < 0.3)
    y = SparseRatingMatrix(n_users, n_items, 5, users, items, rng.integers(1, 6, users.size))
    return model, y


@pytest.mark.parametrize("sort_rows", [True, False], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidates_match_open_scan_reference(seed, sort_rows):
    model, y = random_band_instance(seed, sort_rows)
    for tau in (0.1, 0.3, 0.4999):
        grid = candidate_levels(model, y, tau)
        assert np.count_nonzero(grid) > 0
        np.testing.assert_array_equal(grid, open_scan_candidates(model, y, tau))


@pytest.mark.parametrize("sort_rows", [True, False], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refinement_matches_threshold_loop_on_sorted_rows(seed, sort_rows):
    model, y = random_band_instance(seed, sort_rows)
    sorted_rows = np.all(np.diff(model.thresholds, axis=1) >= 0, axis=1)
    keep = sorted_rows[y.users]
    assert keep.any()
    on_sorted = y.select(keep)
    for tau in (0.05, 0.15, 0.3):
        low = low_confidence_observed(model, on_sorted, tau)
        want_u, want_i = threshold_loop_refinement(model, on_sorted, tau)
        assert low.any()
        np.testing.assert_array_equal(on_sorted.users[low], want_u)
        np.testing.assert_array_equal(on_sorted.items[low], want_i)


def test_bands_disjoint_on_any_rows():
    # half the rows are out of order: a cell deep inside band r at tau1 can
    # still sit within tau2 gaps of a threshold stored out of place, so
    # refinement must mean "no band at tau2 holds the score"
    model, _ = random_band_instance(0, sort_rows=False)
    assert np.any(np.diff(model.thresholds, axis=1) < 0)
    n_users, n_items = model.n_users, model.n_items
    empty = SparseRatingMatrix.from_triples(n_users, n_items, 5, [])
    users, items = np.divmod(np.arange(n_users * n_items), n_items)
    full = SparseRatingMatrix(n_users, n_items, 5, users, items, np.ones_like(users))
    confident = np.flatnonzero(candidate_levels(model, empty, 0.3))
    low = low_confidence_observed(model, full, 0.15)
    assert len(confident) > 0 and low.any()
    assert np.intersect1d(confident, full.observed_keys()[low]).size == 0


# ------------------------------------------------------------ skew allocation

def test_skew_allocation_worked_example():
    got = skew_allocation([0.1, 0.1, 0.3, 0.3, 0.2], 1000)
    assert list(got) == [225, 225, 175, 175, 200]


def test_skew_allocation_uniform():
    assert list(skew_allocation([0.2] * 5, 1000)) == [200] * 5


def test_skew_allocation_saturated_label():
    assert list(skew_allocation([1.0, 0.0, 0.0, 0.0, 0.0], 1000)) == [0, 250, 250, 250, 250]


def test_skew_allocation_sums_and_monotone():
    rng = np.random.default_rng(2)
    for _ in range(60):
        z = rng.dirichlet(np.ones(5))
        total = int(rng.integers(0, 5000))
        got = skew_allocation(z, total)
        assert got.sum() == total
        for a in range(5):
            for b in range(5):
                if z[a] < z[b]:
                    assert got[a] >= got[b]


def test_skew_allocation_degenerate_rejected():
    with pytest.raises(ValueError):
        skew_allocation([1.0, 1.0, 1.0], 10)
    with pytest.raises(ValueError):
        skew_allocation([0.5, 0.2], 10)  # does not sum to 1


# ----------------------------------------------------------------- sampling

def test_sample_cap_binds():
    rng = np.random.default_rng(3)
    pool = cands([(0, j, (j % 5) + 1) for j in range(200)], n_items=200)
    shares = np.bincount(pool.ratings, minlength=6)[1:] / 200
    got = sample_augment(dense(pool), shares, 100.0, 50, rng)
    assert len(got) == 50


def test_sample_everything_when_unconstrained():
    rng = np.random.default_rng(4)
    pool = cands([(0, j, (j % 5) + 1) for j in range(10)])
    got = sample_augment(dense(pool), [0.2] * 5, 100.0, 10**9, rng)
    assert len(got) == 10


def test_sample_percentage_floor():
    rng = np.random.default_rng(5)
    pool = cands([(0, j, (j % 5) + 1) for j in range(99)], n_items=99)
    got = sample_augment(dense(pool), [0.2] * 5, 10.0, 10**9, rng)
    assert len(got) == 9  # floor(99 * 0.10)


def test_sample_redistributes_to_available_labels():
    # every candidate carries label 1 while the allocation gives label 1
    # nothing; redistribution must still fill the target from label 1
    rng = np.random.default_rng(6)
    pool = cands([(0, j, 1) for j in range(30)], n_items=30, max_rating=3)
    got = sample_augment(dense(pool), [1.0, 0.0, 0.0], 100.0, 12, rng)
    assert len(got) == 12
    assert np.all(got.ratings == 1)


@pytest.mark.parametrize("cap,want", [(20, [1, 5, 5, 5, 4]), (40, [1, 10, 10, 10, 9])])
def test_sample_splits_the_leftover_quota_by_largest_remainder(cap, want):
    # quotas at cap 20 are [4, 4, 4, 4, 4]; label 1 holds one cell, so each
    # of labels 2-5 is owed 0.75 of the 3 left, and the ties go to the
    # lower labels, as in skew_allocation
    grid = np.zeros((5, 33), dtype=np.uint8)
    grid.flat[:161] = np.repeat(np.arange(1, 6), [1, 40, 40, 40, 40])
    shares = [0.1, 0.2, 0.2, 0.25, 0.25]
    got = sample_augment(grid, shares, 100.0, cap, np.random.default_rng(0))
    assert np.bincount(got.ratings, minlength=6)[1:].tolist() == want


def matrix_sample_augment(cands, shares, sample_pct, cap, rng):
    """Reference: the sampler over a candidate triple matrix, drawing each
    label's pool from the matrix's positions (key order)."""
    target = min(int(cap), int(np.floor(len(cands) * sample_pct / 100.0)))
    if target <= 0:
        return cands.select(np.empty(0, dtype=np.int64))
    supply = np.bincount(cands.ratings, minlength=cands.max_rating + 1)[1:]
    take = np.minimum(skew_allocation(shares, target), supply)
    left = target - int(take.sum())
    if left > 0:
        avail = supply - take
        take += selftrain._largest_remainder(left * avail / int(avail.sum()), left)
    chosen = []
    for level in range(1, cands.max_rating + 1):
        k = int(take[level - 1])
        if k:
            pool_idx = np.nonzero(cands.ratings == level)[0]
            chosen.append(pool_idx if k >= pool_idx.size
                          else rng.choice(pool_idx, size=k, replace=False))
    return cands.select(np.sort(np.concatenate(chosen)))


@pytest.mark.parametrize("sample_pct,cap", [(100.0, 100), (100.0, 480), (30.0, 10**9)])
@pytest.mark.parametrize("seed", [0, 1])
def test_sample_on_the_grid_picks_the_matrix_paths_cells(seed, sample_pct, cap):
    # 493 candidates on a 20 x 50 grid; label 1 has 3 cells and label 5 has
    # 40, while the skew allocation favours both, so the spill loop runs
    rng = np.random.default_rng(seed)
    grid = np.zeros((20, 50), dtype=np.uint8)
    labels = rng.permutation(np.repeat(np.arange(1, 6), [3, 200, 150, 100, 40]))
    grid.flat[rng.choice(grid.size, size=labels.size, replace=False)] = labels
    users, items = np.nonzero(grid)
    pool = SparseRatingMatrix(20, 50, 5, users, items, grid[users, items])
    shares = [0.05, 0.3, 0.3, 0.3, 0.05]
    target = min(cap, int(len(pool) * sample_pct / 100.0))
    supply = np.bincount(pool.ratings, minlength=6)[1:]
    assert np.any(skew_allocation(shares, target) > supply)
    got = sample_augment(grid, shares, sample_pct, cap, np.random.default_rng(seed + 10))
    want = matrix_sample_augment(pool, shares, sample_pct, cap, np.random.default_rng(seed + 10))
    assert (got.n_users, got.n_items, got.max_rating, len(got)) == (20, 50, 5, target)
    for column in ("users", "items", "ratings"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))


def test_sample_deterministic_per_rng_seed():
    pool = cands([(0, j, (j % 5) + 1) for j in range(500)], n_items=500)
    shares = [0.2] * 5
    a = sample_augment(dense(pool), shares, 50.0, 100, np.random.default_rng(9))
    b = sample_augment(dense(pool), shares, 50.0, 100, np.random.default_rng(9))
    np.testing.assert_array_equal(a.items, b.items)


# ------------------------------------------------------- augment and refine

def test_apply_augment_identity_and_count():
    y = SparseRatingMatrix.from_triples(4, 4, 5, [(0, 0, 3), (1, 1, 2)])
    assert apply_augment(y, cands([], n_items=4)) is y
    grown = apply_augment(y, cands([(2, 2, 4), (3, 0, 1)], n_items=4))
    assert grown.n_observed == 4
    assert dense(grown)[2, 2] == 4


def test_apply_augment_collision_rejected():
    y = SparseRatingMatrix.from_triples(4, 4, 5, [(0, 0, 3)])
    with pytest.raises(ValueError):
        apply_augment(y, cands([(0, 0, 5)], n_items=4))


def test_refine_mask_identity_and_count():
    y = SparseRatingMatrix.from_triples(4, 4, 5, [(i, i, 2) for i in range(4)])
    same = y.select(~np.zeros(4, dtype=bool))
    assert same.content_hash() == y.content_hash()
    fewer = y.select(~np.array([False, True, False, True]))
    assert fewer.n_observed == 2
    assert list(fewer.users) == [0, 2] and list(fewer.items) == [0, 2]


def test_refined_cell_becomes_augmentable():
    y = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3), (1, 1, 4)])
    smaller = y.select(~np.array([True, False]))
    assert smaller.n_observed == 1
    regrown = apply_augment(smaller, cands([(0, 0, 2)], n_items=2))
    assert dense(regrown)[0, 0] == 2


# --------------------------------------------------------------- overlap

def test_overlap_stats_cases():
    a, b, c, d = (0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4)
    prev = cands([a, b, c])
    cur = cands([b, c, d])
    assert overlap_stats(dense(prev), dense(cur)) == (2, pytest.approx(2 / 3))
    assert overlap_stats(dense(cands([])), dense(cur)) == (0, 0.0)


def test_overlap_requires_exact_triple():
    prev = cands([(0, 0, 1)])
    cur = cands([(0, 0, 2)])  # same cell, different rating
    assert overlap_stats(dense(prev), dense(cur)) == (0, 0.0)


def test_overlap_rejects_grid_of_another_shape():
    cur = dense(cands([(0, 0, 1)]))  # 10 x 10
    for shape in ((10, 11), (11, 10), (100,)):
        with pytest.raises(ValueError, match="differs"):
            overlap_stats(np.ones(shape, dtype=np.uint8), cur)


def test_overlap_published_ratio():
    # reference bookkeeping: 374637 retained out of 395851 previous candidates
    assert 374637 / 395851 == pytest.approx(0.9464, abs=5e-5)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        SelfTrainConfig(tau_augment=0.6)
    with pytest.raises(ValueError):
        SelfTrainConfig(tau_refine=0.5, tau_augment=0.4)
    with pytest.raises(ValueError):
        SelfTrainConfig(sample_pct=0.0)
    with pytest.raises(ValueError):
        SelfTrainConfig(sample_pct=101.0)
    with pytest.raises(ValueError, match="need 0 <= tau_refine"):
        SelfTrainConfig(tau_refine=-0.1)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        SelfTrainConfig(cap=-1)
    with pytest.raises(ValueError):
        SelfTrainConfig(max_rounds=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SelfTrainConfig(seed=-1)
    with pytest.raises(ValueError, match="reg must be finite and > 0"):
        SelfTrainConfig(reg=0.0)
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        SelfTrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="gd_iters must be >= 0"):
        SelfTrainConfig(gd_iters=-1)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        SelfTrainConfig(tol=-1.0)
    for field in ("reg", "lr", "tol"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SelfTrainConfig(**{field: value})
    assert SelfTrainConfig(gd_iters=0, tol=0.0).gd_iters == 0


@pytest.mark.parametrize("call, message", [
    (lambda: SelfTrainConfig(patience=0), "patience must be >= 1"),
    (lambda: low_confidence_observed(*band_model([2.5]), -0.1), r"tau_refine must lie in \[0, 0.5\)"),
    (lambda: low_confidence_observed(*band_model([2.5]), 0.5), r"tau_refine must lie in \[0, 0.5\)"),
    (lambda: skew_allocation([0.5, 0.5], -1), "total must be >= 0"),
    (lambda: skew_allocation([1.5, -0.5], 10), "shares must be a non-negative vector"),
    (lambda: skew_allocation([[0.5, 0.5]], 10), "shares must be a non-negative vector"),
    (lambda: skew_allocation([1.0], 10), "degenerate rating distribution"),
    (lambda: sample_augment(np.ones((2, 2), np.uint8), [0.5, 0.5], 0.0, 10, None),
     r"sample_pct must lie in \(0, 100\]"),
    (lambda: sample_augment(np.ones((2, 2), np.uint8), [0.5, 0.5], 100.5, 10, None),
     r"sample_pct must lie in \(0, 100\]"),
    (lambda: sample_augment(np.ones((2, 2), np.uint8), [0.5, 0.5], 100.0, -1, None),
     "cap must be >= 0"),
], ids=["patience", "tau-refine-negative", "tau-refine-half", "total-negative",
        "share-negative", "shares-2-d", "one-label", "sample-pct-0", "sample-pct-over-100",
        "cap-negative"])
def test_guards_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --------------------------------------------------------------------- loop

def small_problem():
    truth = planted_model(40, 30, rank=2, seed=1)
    full = planted_matrix(truth, observed_frac=0.5, seed=2, noise=0.4)
    return split(full, 0.8, seed=3)


def loop_config(**overrides):
    base = dict(
        n_factors=4, reg=0.2, lr=0.02, gd_iters=80, tol=1e-7, seed=5,
        tau_augment=0.4999, tau_refine=0.10, sample_pct=100.0, cap=30,
        max_rounds=4,
    )
    base.update(overrides)
    return SelfTrainConfig(**base)


def test_loop_conservation_and_test_untouched():
    train_m, test_m = small_problem()
    before = test_m.content_hash()
    cells = train_m.n_users * train_m.n_items
    result = selftrain_loop(train_m, loop_config(), test_m)
    assert result.reports
    for report in result.reports:
        assert report.observed + report.unobserved == cells
        assert report.augmented <= min(30, report.candidates)
    assert test_m.content_hash() == before


def test_loop_deterministic():
    train_m, test_m = small_problem()
    a = selftrain_loop(train_m, loop_config(), test_m)
    b = selftrain_loop(train_m, loop_config(), test_m)
    assert len(a.reports) == len(b.reports)
    for ra, rb in zip(a.reports, b.reports):
        assert ra == rb
    np.testing.assert_array_equal(a.model.user_factors, b.model.user_factors)


def test_loop_first_report_counts():
    train_m, test_m = small_problem()
    result = selftrain_loop(train_m, loop_config(max_rounds=1), test_m)
    report = result.reports[0]
    assert report.iteration == 1
    assert report.observed == train_m.n_observed
    assert report.overlap is None and report.retained_frac is None


def test_report_counts_gap_clamps(monkeypatch):
    train_m, test_m = small_problem()
    theta = np.tile(UNIT_THETA, (train_m.n_users, 1))
    theta[0] = 2.0                # collapsed: every gap is 0
    theta[1] = UNIT_THETA[::-1]   # inverted: the average gap is -1
    model = FactorModel(np.zeros((train_m.n_users, 2)), np.ones((train_m.n_items, 2)), theta)
    trace = trainer.TrainTrace(objectives=np.array([1.0]), iterations=0, converged=False,
                               order_violations=0, kernel_calls=1)
    monkeypatch.setattr(selftrain, "train", lambda y, cfg: (model, trace))
    report = selftrain_loop(train_m, loop_config(max_rounds=1), test_m).reports[0]
    assert report.gap_clamps == 2
    assert json.loads(report.to_json())["gap_clamps"] == 2


def test_loop_releases_each_rounds_candidates_before_the_next_solve(monkeypatch):
    """Only the previous round's candidate grid crosses a round: no older
    grid is alive when the next solve starts."""
    train_m, test_m = small_problem()
    refs, alive = [], []
    build, solve = selftrain.candidate_levels, selftrain.train

    def recording_build(*args):
        result = build(*args)
        refs.append(weakref.ref(result))
        return result

    def checking_solve(*args):
        alive.append([ref() is not None for ref in refs])
        return solve(*args)

    monkeypatch.setattr(selftrain, "candidate_levels", recording_build)
    monkeypatch.setattr(selftrain, "train", checking_solve)
    result = selftrain_loop(train_m, loop_config(max_rounds=4), test_m)
    assert len(result.reports) == 4
    assert alive == [[], [True], [False, True], [False, False, True]]


def test_loop_overlap_is_the_exact_triple_intersection(monkeypatch):
    train_m, test_m = small_problem()
    rounds, build = [], selftrain.candidate_levels

    def recording_build(*args):
        rounds.append(build(*args))
        return rounds[-1]

    def triples(grid):
        keys = np.flatnonzero(grid)
        return keys * (train_m.max_rating + 1) + grid.ravel()[keys]

    monkeypatch.setattr(selftrain, "candidate_levels", recording_build)
    result = selftrain_loop(train_m, loop_config(), test_m)
    assert len(result.reports) == len(rounds) >= 3
    for prev, cur, report in zip(rounds, rounds[1:], result.reports[1:]):
        overlap = np.intersect1d(triples(prev), triples(cur), assume_unique=True).size
        assert (report.overlap, report.retained_frac) == (overlap, overlap / np.count_nonzero(prev))
    assert all(r.overlap > 0 for r in result.reports[1:])


def test_loop_augmented_triples_rediscretize_to_their_rating():
    train_m, test_m = small_problem()
    seen = []

    def check(report, model, y_in, y_out):
        added_keys = np.setdiff1d(y_out.observed_keys(), y_in.observed_keys())
        dense_out = dense(y_out)
        for key in added_keys:
            u, i = divmod(int(key), y_out.n_items)
            score = float(model.user_factors[u] @ model.item_factors[i])
            assert discretize_rows(model.thresholds[u:u + 1], [[score]])[0, 0] == dense_out[u, i]
        seen.append(len(added_keys))

    selftrain_loop(train_m, loop_config(max_rounds=3), test_m, callback=check)
    assert sum(seen) > 0


def test_loop_requires_disjoint_test():
    train_m, _ = small_problem()
    overlapping = SparseRatingMatrix.from_triples(
        train_m.n_users, train_m.n_items, 5,
        [(int(train_m.users[0]), int(train_m.items[0]), 3)],
    )
    with pytest.raises(ValueError):
        selftrain_loop(train_m, loop_config(), overlapping)


def test_loop_requires_test_on_same_grid():
    train_m, test_m = small_problem()
    wider = SparseRatingMatrix(
        test_m.n_users, test_m.n_items + 1, test_m.max_rating,
        test_m.users, test_m.items, test_m.ratings,
    )
    with pytest.raises(ValueError, match="differs"):
        selftrain_loop(train_m, loop_config(), wider)


def test_loop_stops_when_no_candidates():
    # an extreme augment band leaves no confident cells on a tiny matrix
    y = SparseRatingMatrix.from_triples(3, 3, 5, [(i, j, 3) for i in range(3) for j in range(3) if i != j])
    cfg = loop_config(n_factors=2, max_rounds=10, tau_augment=0.4999999)
    result = selftrain_loop(y, cfg)
    if result.stop_reason == "no_candidates":
        assert result.reports[-1].candidates == 0
    else:  # candidates may exist; the loop must then run its full budget
        assert len(result.reports) == 10


def test_loop_on_an_empty_matrix_stops_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a solve started")

    monkeypatch.setattr(trainer, "initial_model", no_solve)  # train's first step
    with pytest.raises(ValueError, match="cannot train on an empty rating matrix"):
        selftrain_loop(SparseRatingMatrix.from_triples(3, 3, 5, []), loop_config())


def test_loop_stops_after_the_round_that_empties_the_matrix(monkeypatch):
    train_m, test_m = small_problem()
    # round 1 refines every entry and samples none of its candidates
    monkeypatch.setattr(selftrain, "low_confidence_observed",
                        lambda model, y, tau: np.ones(y.n_observed, dtype=bool))
    for max_rounds in (1, 4):
        models = []
        result = selftrain_loop(
            train_m, loop_config(max_rounds=max_rounds, sample_pct=1e-9), test_m,
            callback=lambda report, model, y_in, y_out: models.append((model, y_out)))
        assert result.stop_reason == "empty_training_set"
        assert len(result.reports) == 1 and result.reports[0].candidates > 0
        assert result.reports[0].augmented == 0
        assert [y_out.n_observed for _, y_out in models] == [0]
        assert result.model is models[0][0]


def test_zero_tau_refine_refines_nothing(monkeypatch):
    train_m, test_m = small_problem()
    off = selftrain_loop(train_m, loop_config(tau_refine=0.0), test_m)
    assert [r.refined for r in off.reports] == [0] * 4
    # the same run with the refine mask forced empty, at the default band
    monkeypatch.setattr(selftrain, "low_confidence_observed",
                        lambda model, y, tau: np.zeros(y.n_observed, dtype=bool))
    forced = selftrain_loop(train_m, loop_config(), test_m)
    assert off.reports == forced.reports
    for name in ("user_factors", "item_factors", "thresholds"):
        np.testing.assert_array_equal(getattr(off.model, name), getattr(forced.model, name))


def test_zero_cap_augments_nothing():
    train_m, test_m = small_problem()
    result = selftrain_loop(train_m, loop_config(cap=0), test_m)
    assert len(result.reports) == 4
    assert all(r.candidates > 0 and r.augmented == 0 for r in result.reports)
    # refinement alone changes the matrix, round by round
    reports = result.reports
    assert [r.observed - r.refined for r in reports[:-1]] == [r.observed for r in reports[1:]]


def test_loop_rejects_a_two_level_scale_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a solve started")

    monkeypatch.setattr(selftrain, "train", no_solve)
    y = SparseRatingMatrix.from_triples(3, 3, 2, [(0, 0, 1), (1, 1, 2), (2, 2, 1)])
    with pytest.raises(ValueError, match="rating scale of at least 3"):
        selftrain_loop(y, loop_config())


def patch_test_maes(monkeypatch, maes):
    """Make the loop's round-by-round test MAEs read `maes` in turn."""
    maes = iter(maes)
    monkeypatch.setattr(selftrain, "snapshot",
                        lambda pairs: MetricsSnapshot(mae=next(maes), rmse=1.0))


def test_loop_stops_after_patience_worse_rounds(monkeypatch):
    train_m, test_m = small_problem()
    # round 3 is worse, round 4 better again, rounds 5-7 worse in a row
    patch_test_maes(monkeypatch, [0.9, 0.5, 0.6, 0.55, 0.7, 0.8, 0.9, 1.0])
    models = []
    result = selftrain_loop(train_m, loop_config(max_rounds=8, patience=3), test_m,
                            callback=lambda report, model, y_in, y_out: models.append(model))
    assert result.stop_reason == "test_mae_degrading"
    assert [r.test_mae for r in result.reports] == [0.9, 0.5, 0.6, 0.55, 0.7, 0.8, 0.9]
    assert result.model is models[-1]


def test_a_tied_test_mae_resets_the_patience_streak(monkeypatch):
    train_m, test_m = small_problem()
    patch_test_maes(monkeypatch, [0.5, 0.6, 0.6, 0.7, 0.8, 0.9])
    result = selftrain_loop(train_m, loop_config(max_rounds=6, patience=2), test_m)
    assert result.stop_reason == "test_mae_degrading"
    assert len(result.reports) == 5


def test_no_candidates_wins_over_a_rising_test_mae(monkeypatch):
    train_m, test_m = small_problem()
    patch_test_maes(monkeypatch, [0.5, 0.6, 0.7])
    build, rounds = selftrain.candidate_levels, []

    def empty_on_round_3(*args):
        rounds.append(None)
        grid = build(*args)
        return np.zeros_like(grid) if len(rounds) == 3 else grid

    monkeypatch.setattr(selftrain, "candidate_levels", empty_on_round_3)
    result = selftrain_loop(train_m, loop_config(max_rounds=5, patience=2), test_m)
    assert result.stop_reason == "no_candidates"
    assert [r.candidates == 0 for r in result.reports] == [False, False, True]


def test_a_patience_stop_on_the_last_round_names_the_test_mae(monkeypatch):
    train_m, test_m = small_problem()
    patch_test_maes(monkeypatch, [0.5, 0.6, 0.7])
    result = selftrain_loop(train_m, loop_config(max_rounds=3, patience=2), test_m)
    assert result.stop_reason == "test_mae_degrading"
    assert len(result.reports) == 3


def test_an_empty_test_matrix_never_stops_the_loop_on_patience(monkeypatch):
    train_m, _ = small_problem()
    empty = SparseRatingMatrix.from_triples(train_m.n_users, train_m.n_items,
                                            train_m.max_rating, [])
    patch_test_maes(monkeypatch, [0.5, 0.6, 0.7])  # never read: nothing to score
    result = selftrain_loop(train_m, loop_config(max_rounds=3, patience=1), empty)
    assert result.stop_reason == "max_rounds"
    assert [(r.test_mae, r.test_pseudo) for r in result.reports] == [(None, 0)] * 3


def test_loop_without_test_matrix():
    train_m, _ = small_problem()
    result = selftrain_loop(train_m, loop_config(max_rounds=2))
    assert all(r.test_mae is None and r.test_pseudo is None for r in result.reports)


def test_test_pseudo_counts_test_cells_carrying_a_pseudo_rating():
    train_m, test_m = small_problem()
    counted = []

    def count(report, model, y_in, y_out):
        counted.append(np.intersect1d(y_in.observed_keys(), test_m.observed_keys()).size)

    result = selftrain_loop(train_m, loop_config(), test_m, callback=count)
    got = [r.test_pseudo for r in result.reports]
    assert got == counted and got[0] == 0 and got[-1] > 0
    assert json.loads(result.reports[-1].to_json())["test_pseudo"] == got[-1]


def test_report_serialization():
    train_m, test_m = small_problem()
    result = selftrain_loop(train_m, loop_config(max_rounds=2), test_m)
    line = result.reports[0].to_json()
    assert '"iter": 1' in line and '"overlap": null' in line
    row = result.reports[0].to_csv_row()
    assert row[0] == "1" and row[6] == ""
    row2 = result.reports[1].to_csv_row()
    assert row2[6] != ""


def test_reports_carry_solver_stats():
    train_m, test_m = small_problem()
    cfg = loop_config(max_rounds=2)
    result = selftrain_loop(train_m, cfg, test_m)
    for report in result.reports:
        fields = json.loads(report.to_json())
        assert fields["kernel_calls"] >= fields["steps"] + 1
        assert 0 <= fields["steps"] <= cfg.gd_iters
        assert isinstance(fields["converged"], bool)
        assert np.isfinite(fields["objective"]) and fields["objective"] > 0
        assert fields["order_violations"] >= 0
        assert len(report.to_csv_row()) == 10
    # round 1 solves the input matrix, so it reports that solve's trace
    _, trace = train(train_m, cfg)
    first = result.reports[0]
    assert (first.steps, first.converged, first.kernel_calls, first.order_violations) == (
        trace.iterations, trace.converged, trace.kernel_calls, trace.order_violations)
    assert first.objective == trace.objectives[-1]
