import numpy as np
import pytest

from stmmmf.core import (
    GAP_EPS,
    FactorModel,
    SparseRatingMatrix,
    UnsupportedScaleError,
    avg_threshold_gaps,
    discretize,
    discretize_rows,
    smooth_hinge,
    smooth_hinge_grad,
    t_indicator,
)


def model_with_thresholds(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    return FactorModel(np.zeros((n, 2)), np.zeros((3, 2)), rows)


# ---------------------------------------------------------------- smooth hinge

def test_smooth_hinge_values():
    assert smooth_hinge(1.0) == 0.0
    assert smooth_hinge(0.5) == 0.125
    assert smooth_hinge(-2.0) == 2.5


def test_smooth_hinge_grad_values():
    assert smooth_hinge_grad(2.0) == 0.0
    assert smooth_hinge_grad(0.25) == -0.75
    assert smooth_hinge_grad(-1.0) == -1.0


def test_smooth_hinge_clip_form_matches_piecewise_bits():
    edges = [-np.inf, -0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
             np.nextafter(1.0, 2.0), np.inf]
    z = np.r_[np.linspace(-3, 3, 6001), edges]
    piecewise = np.where(z >= 1.0, 0.0, np.where(z > 0.0, 0.5 * (1.0 - z) ** 2, 0.5 - z))
    slope = np.where(z >= 1.0, 0.0, np.where(z > 0.0, z - 1.0, -1.0))
    assert smooth_hinge(z).tobytes() == piecewise.tobytes()
    assert smooth_hinge_grad(z).tobytes() == slope.tobytes()


def test_smooth_hinge_shape_properties():
    z = np.linspace(-5, 5, 2001)
    h = smooth_hinge(z)
    assert np.all(h >= 0)
    assert np.all(np.diff(h) <= 1e-15)  # non-increasing
    g = smooth_hinge_grad(z)
    assert np.all((g >= -1) & (g <= 0))


def test_smooth_hinge_lipschitz():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10, 10, 5000)
    b = rng.uniform(-10, 10, 5000)
    lhs = np.abs(smooth_hinge(a) - smooth_hinge(b))
    assert np.all(lhs <= np.abs(a - b) + 1e-12)


def test_smooth_hinge_convexity():
    rng = np.random.default_rng(1)
    a = rng.uniform(-5, 5, 2000)
    b = rng.uniform(-5, 5, 2000)
    t = rng.uniform(0, 1, 2000)
    mid = smooth_hinge(t * a + (1 - t) * b)
    assert np.all(mid <= t * smooth_hinge(a) + (1 - t) * smooth_hinge(b) + 1e-12)


def test_smooth_hinge_grad_matches_finite_difference():
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, 500)
    z = z[(np.abs(z) > 1e-3) & (np.abs(z - 1) > 1e-3)]
    h = 1e-5
    fd = (smooth_hinge(z + h) - smooth_hinge(z - h)) / (2 * h)
    g = smooth_hinge_grad(z)
    err = np.abs(fd - g)
    rel = err / np.maximum(np.abs(g), 1e-12)
    # relative error where the derivative is sizable, absolute in the flat region
    assert np.all((rel < 1e-6) | (err < 1e-9))


def test_smooth_hinge_continuity_at_kinks():
    for kink in (0.0, 1.0):
        left = smooth_hinge(kink - 1e-9)
        right = smooth_hinge(kink + 1e-9)
        assert abs(left - right) < 1e-8


# ------------------------------------------------------------------ indicator

def test_t_indicator_cases():
    assert t_indicator(3, 3) == 1
    assert t_indicator(2, 4) == -1
    assert t_indicator(4, 1) == 1


def test_t_indicator_single_flip():
    R = 5
    for y in range(2, R):
        signs = [t_indicator(r, y) for r in range(1, R)]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1


# --------------------------------------------------------------- score + bins

def test_discretize_examples():
    m = model_with_thresholds([[1.5, 2.5, 3.5, 4.5]])
    assert discretize(m, 0, 3.0) == 3
    assert discretize(m, 0, -10.0) == 1
    # boundary goes to the lower interval
    assert discretize(m, 0, 4.5) == 4
    assert discretize(m, -1, 3.0) == 3  # user indices follow NumPy's rules


def test_discretize_partitions_the_line():
    rng = np.random.default_rng(3)
    theta = np.sort(rng.normal(0, 2, 4))
    m = model_with_thresholds([theta])
    xs = np.r_[rng.uniform(-8, 8, 300), theta]  # include exact boundaries
    ratings = discretize_rows(theta[None, :], xs[None, :])[0]
    assert np.all((ratings >= 1) & (ratings <= 5))
    order = np.argsort(xs)
    assert np.all(np.diff(ratings[order]) >= 0)  # monotone in x
    for x, r in zip(xs[:20], ratings[:20]):
        assert discretize(m, 0, float(x)) == r


def test_discretize_unsorted_row_scans_in_order():
    # (theta_1, theta_2] is empty when the row inverts; first match wins
    m = model_with_thresholds([[2.0, 1.0]])
    assert discretize(m, 0, 1.5) == 1
    assert discretize(m, 0, 5.0) == 3
    assert discretize(m, 0, -1.0) == 1
    assert discretize_rows(m.thresholds, np.array([[1.5, 5.0, -1.0]])).tolist() == [[1, 3, 1]]


def test_discretize_rows_matches_scalar():
    rng = np.random.default_rng(4)
    theta = np.sort(rng.normal(0, 1.5, (6, 4)), axis=1)
    x = rng.uniform(-4, 4, (6, 10))
    block = discretize_rows(theta, x)
    m = model_with_thresholds(theta)
    for i in range(6):
        for j in range(10):
            assert block[i, j] == discretize(m, i, x[i, j])


# ------------------------------------------------------------------- gaps

def test_avg_threshold_gap_examples():
    m = model_with_thresholds([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 3.0, 4.0]])
    gaps, n_clamped = avg_threshold_gaps(m)
    assert gaps[0] == 1.0
    assert gaps[1] == pytest.approx(4.0 / 3.0)
    assert n_clamped == 0
    m = model_with_thresholds([[-1.0, 1.0]])
    assert avg_threshold_gaps(m)[0].tolist() == [2.0]


def test_avg_threshold_gap_uniform_rows_exact():
    for gap in (0.25, 1.0, 3.5):
        theta = np.arange(4) * gap
        m = model_with_thresholds([theta])
        assert avg_threshold_gaps(m)[0][0] == gap


def test_avg_threshold_gap_clamps_and_counts():
    m = model_with_thresholds([[3.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    gaps, n_clamped = avg_threshold_gaps(m)
    assert gaps[0] == GAP_EPS
    assert gaps[1] == 1.0
    assert n_clamped == 1


def test_avg_threshold_gap_needs_three_levels():
    m = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(UnsupportedScaleError):
        avg_threshold_gaps(m)


# ------------------------------------------------------------- matrix type

def test_matrix_rejects_duplicates_and_bad_values():
    with pytest.raises(ValueError):
        SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3), (0, 0, 4)])
    with pytest.raises(ValueError):
        SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 0)])
    with pytest.raises(ValueError):
        SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 6)])
    with pytest.raises(ValueError):
        SparseRatingMatrix.from_triples(2, 2, 5, [(2, 0, 3)])


def test_matrix_sorted_and_immutable():
    y = SparseRatingMatrix.from_triples(3, 3, 5, [(2, 1, 4), (0, 2, 1), (0, 0, 5)])
    assert list(y.users) == [0, 0, 2]
    assert list(y.items) == [0, 2, 1]
    with pytest.raises(ValueError):
        y.users[0] = 1
    # shuffled distinct cells come out in (user, item) lexicographic order
    rng = np.random.default_rng(11)
    cells = rng.choice(60 * 90, size=3000, replace=False)
    u, i, r = cells // 90, cells % 90, rng.integers(1, 6, size=cells.size)
    big = SparseRatingMatrix(60, 90, 5, u, i, r)
    order = np.lexsort((i, u))
    for got, want in ((big.users, u), (big.items, i), (big.ratings, r)):
        np.testing.assert_array_equal(got, want[order])


def test_matrix_counts_and_mask():
    y = SparseRatingMatrix.from_triples(2, 3, 5, [(0, 0, 1), (0, 2, 5), (1, 1, 3)])
    assert y.n_observed == 3
    assert y.n_unobserved == 3
    mask = y.observed_mask()
    assert mask.sum() == 3 and mask[0, 0] and mask[1, 1]
    assert list(y.user_counts()) == [2, 1]
    np.testing.assert_allclose(y.rating_shares(), [1 / 3, 0, 1 / 3, 0, 1 / 3])
    assert list(y.contains([0, 1, 1], [0, 1, 2])) == [True, True, False]


def test_matrix_content_hash_tracks_content():
    a = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3)])
    b = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3)])
    c = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 4)])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_model_validation():
    with pytest.raises(ValueError):
        FactorModel(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        FactorModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        FactorModel(np.full((2, 2), np.nan), np.zeros((2, 2)), np.zeros((2, 4)))
    m = FactorModel(np.zeros((2, 3)), np.zeros((5, 3)), np.zeros((2, 4)))
    assert (m.n_users, m.n_items, m.n_factors, m.max_rating) == (2, 5, 3, 5)
