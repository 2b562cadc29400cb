import numpy as np
import pytest

from oracle import dense, smooth_hinge, smooth_hinge_grad, traced_peak
from stmmmf import core
from stmmmf.core import (
    GAP_EPS,
    FactorModel,
    SparseRatingMatrix,
    avg_threshold_gaps,
    check_grid,
    discretize_rows,
    row_dots,
)


def model_with_thresholds(rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    return FactorModel(np.zeros((n, 2)), np.zeros((3, 2)), rows)


# ------------------------------------------------------------------- row dots

B = core.BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_row_dots_matches_unblocked_einsum_bits(n, k):
    rng = np.random.default_rng(n * 1000 + k)
    a, b = rng.normal(size=(37, k)), rng.normal(size=(53, k))
    a_rows, b_rows = rng.integers(0, 37, n), rng.integers(0, 53, n)
    want = np.einsum("ij,ij->i", np.take(a, a_rows, axis=0), np.take(b, b_rows, axis=0))
    for rows in ((a_rows, b_rows), (a_rows.tolist(), b_rows.tolist())):
        got = row_dots(a, rows[0], b, rows[1])
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


def test_model_scores_hold_no_full_gather():
    """FactorModel.scores gathers factor rows a block at a time: its traced
    peak stays below one unblocked (n, k) float64 gather, eight times the
    two block gathers here."""
    rng = np.random.default_rng(1)
    n, k = 16 * B, 32
    model = FactorModel(rng.normal(size=(300, k)), rng.normal(size=(400, k)),
                        np.zeros((300, 4)))
    users, items = rng.integers(0, 300, n), rng.integers(0, 400, n)
    _, peak = traced_peak(model.scores, users, items)
    assert peak < n * k * 8


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


# --------------------------------------------------------------- score + bins

def test_discretize_examples():
    m = model_with_thresholds([[1.5, 2.5, 3.5, 4.5]])
    assert discretize_rows(m.thresholds[[0]], [[3.0]])[0, 0] == 3
    assert discretize_rows(m.thresholds[[0]], [[-10.0]])[0, 0] == 1
    # boundary goes to the lower interval
    assert discretize_rows(m.thresholds[[0]], [[4.5]])[0, 0] == 4
    assert discretize_rows(m.thresholds[[-1]], [[3.0]])[0, 0] == 3  # rows follow NumPy's rules


def test_discretize_partitions_the_line():
    rng = np.random.default_rng(3)
    theta = np.sort(rng.normal(0, 2, 4))
    m = model_with_thresholds([theta])
    xs = np.r_[rng.uniform(-8, 8, 300), theta]  # include exact boundaries
    ratings = discretize_rows(theta[None, :], xs[None, :])[0]
    assert np.all((ratings >= 1) & (ratings <= 5))
    order = np.argsort(xs)
    assert np.all(np.diff(ratings[order]) >= 0)  # monotone in x
    for j, r in enumerate(ratings[:20]):
        assert discretize_rows(m.thresholds[0:1], xs[None, j:j + 1])[0, 0] == r


def test_discretize_unsorted_row_scans_in_order():
    # (theta_1, theta_2] is empty when the row inverts; first match wins
    m = model_with_thresholds([[2.0, 1.0]])
    assert discretize_rows(m.thresholds[0:1], [[1.5]])[0, 0] == 1
    assert discretize_rows(m.thresholds[0:1], [[5.0]])[0, 0] == 3
    assert discretize_rows(m.thresholds[0:1], [[-1.0]])[0, 0] == 1
    assert discretize_rows(m.thresholds, np.array([[1.5, 5.0, -1.0]])).tolist() == [[1, 3, 1]]


def test_discretize_rows_matches_scalar():
    rng = np.random.default_rng(4)
    theta = np.sort(rng.normal(0, 1.5, (6, 4)), axis=1)
    x = rng.uniform(-4, 4, (6, 10))
    block = discretize_rows(theta, x)
    for i in range(6):
        for j in range(10):
            assert block[i, j] == discretize_rows(theta[i:i + 1], x[i:i + 1, j:j + 1])[0, 0]


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
    with pytest.raises(ValueError, match="rating scale of at least 3"):
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


def sorted_cells(n_users=6, n_items=5):
    """Fresh, owned int64 columns of every other cell in (user, item) order."""
    cells = np.arange(0, n_users * n_items, 2)
    return cells // n_items, cells % n_items, cells % 5 + 1


def model_blocks():
    """Fresh, owned float64 factor and threshold blocks, exact in float32."""
    return np.ones((6, 2)), np.full((5, 2), 0.5), np.full((6, 4), 2.0)


# what each frozen type is built from, and the arrays it stores
OWNERS = {
    "matrix": (sorted_cells, lambda *a: SparseRatingMatrix(6, 5, 5, *a), np.int32,
               lambda y: (y.users, y.items, y.ratings)),
    "model": (model_blocks, FactorModel, np.float32,
              lambda m: (m.user_factors, m.item_factors, m.thresholds)),
}


@pytest.mark.parametrize("kind", OWNERS)
def test_takes_over_owned_arrays(kind):
    fresh, build, _, stored = OWNERS[kind]
    given = fresh()
    for got, arr in zip(stored(build(*given)), given):
        assert got is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("swap", [2, 3, 4, 5, 7])
def test_matrix_order_check_sees_across_block_edges(monkeypatch, swap):
    """With 3-entry blocks, an inversion or a duplicate at any position,
    including the entry two blocks share, is sorted or rejected."""
    monkeypatch.setattr(core, "BLOCK", 3)
    u, i, r = sorted_cells()
    shuffled = [a.copy() for a in (u, i, r)]
    for a in shuffled:
        a[[swap, swap + 1]] = a[[swap + 1, swap]]
    y = SparseRatingMatrix(6, 5, 5, *shuffled)
    for got, want, given in zip((y.users, y.items, y.ratings), (u, i, r), shuffled):
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, given)
    doubled = [a.copy() for a in (u, i, r)]
    for a in doubled:
        a[swap + 1] = a[swap]
    with pytest.raises(ValueError, match="duplicate"):
        SparseRatingMatrix(6, 5, 5, *doubled)


def test_matrix_order_check_holds_no_key_array():
    """Sorted input is checked without a key array the size of the input:
    the peak stays under a quarter of the 9 bytes per entry (an int64 key and
    a bool) that a whole key array and its comparison would take."""
    n = 64 * core.BLOCK
    cells = np.arange(n, dtype=np.int64)
    u, i, r = cells // 1024, cells % 1024, np.ones(n, dtype=np.int64)
    _, peak = traced_peak(SparseRatingMatrix, n // 1024, 1024, 5, u, i, r)
    assert peak < 9 * n // 4


@pytest.mark.parametrize("kind", OWNERS)
def test_copies_views_strided_arrays_and_other_dtypes(kind):
    fresh, build, other_dtype, stored = OWNERS[kind]
    want = fresh()
    cases = {
        "contiguous views": [np.append(a, a[:1], axis=0)[:-1] for a in want],
        "strided arrays": [np.stack([a, a], axis=-1)[..., 0] for a in want],
        "other dtype": [a.astype(other_dtype) for a in want],
    }
    if kind == "model":  # only a 2-D array can own memory that is not C-contiguous
        cases["Fortran order"] = [np.asfortranarray(a) for a in want]
    for name, given in cases.items():
        for got, arr, expected in zip(stored(build(*given)), given, want):
            np.testing.assert_array_equal(got, expected)
            assert not np.shares_memory(got, arr), name
            assert arr.flags.writeable, name
            assert arr.base is None or arr.base.flags.writeable, name
            assert not got.flags.writeable, name


def test_matrix_counts_and_mask():
    y = SparseRatingMatrix.from_triples(2, 3, 5, [(0, 0, 1), (0, 2, 5), (1, 1, 3)])
    assert y.n_observed == 3
    assert y.n_unobserved == 3
    mask = dense(y) != 0
    assert mask.sum() == 3 and mask[0, 0] and mask[1, 1]
    assert list(y.user_counts()) == [2, 1]
    np.testing.assert_allclose(y.rating_shares(), [1 / 3, 0, 1 / 3, 0, 1 / 3])
    assert list(y.contains([0, 1, 1], [0, 1, 2])) == [True, True, False]


def test_contains_on_an_empty_matrix_is_all_false():
    y = SparseRatingMatrix.from_triples(2, 3, 5, [])
    got = y.contains([0, 1, 1], [0, 1, 2])
    assert got.dtype == bool and not got.any() and got.shape == (3,)


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


# ------------------------------------------------------------------ guards

@pytest.mark.parametrize("call, message", [
    (lambda: SparseRatingMatrix.from_triples(0, 3, 5, []), "dimensions must be positive"),
    (lambda: SparseRatingMatrix.from_triples(2, 3, 1, []), "max_rating >= 2"),
    (lambda: SparseRatingMatrix(2, 3, 5, [0, 1], [0], [3, 3]), "1-D and equal length"),
    (lambda: SparseRatingMatrix(2, 3, 5, [[0]], [[0]], [[3]]), "1-D and equal length"),
    (lambda: SparseRatingMatrix.from_triples(2, 3, 5, [(0, 3, 3)]), "item index out of range"),
    (lambda: SparseRatingMatrix.from_triples(2, 3, 5, []).rating_shares(), "no observed entries"),
    (lambda: FactorModel(np.zeros(2), np.zeros((3, 1)), np.zeros((2, 4))), "must be 2-D"),
    (lambda: FactorModel(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 0))),
     "at least one threshold column"),
    (lambda: check_grid(FactorModel(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 2))),
                        SparseRatingMatrix.from_triples(2, 3, 5, []), "model", "matrix"),
     r"model grid \(2, 3, 3\) differs from the matrix's \(2, 3, 5\)"),
], ids=["no-users", "one-level", "unequal-length", "2-d-entries", "item-range",
        "shares-of-nothing", "1-d-factors", "no-thresholds", "scale-mismatch"])
def test_guards_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------------ grid check

def grid_model(n_users, n_items, max_rating):
    return FactorModel(np.zeros((n_users, 2)), np.zeros((n_items, 2)),
                       np.zeros((n_users, max_rating - 1)))


def grid_matrix(n_users, n_items, max_rating):
    return SparseRatingMatrix.from_triples(n_users, n_items, max_rating, [(0, 0, 1)])


@pytest.mark.parametrize("make_a", [grid_model, grid_matrix], ids=["model", "matrix"])
@pytest.mark.parametrize("b_grid", [(5, 4, 5), (4, 5, 5), (4, 4, 3)],
                         ids=["users", "items", "scale"])
def test_check_grid_names_both_sides_and_both_grids(make_a, b_grid):
    a, b = make_a(4, 4, 5), grid_matrix(*b_grid)
    with pytest.raises(ValueError) as err:
        check_grid(a, b, "left side", "right side")
    assert str(err.value) == f"left side grid (4, 4, 5) differs from the right side's {b_grid}"


@pytest.mark.parametrize("make_a", [grid_model, grid_matrix], ids=["model", "matrix"])
@pytest.mark.parametrize("make_b", [grid_model, grid_matrix], ids=["model", "matrix"])
def test_check_grid_passes_equal_grids(make_a, make_b):
    assert check_grid(make_a(4, 3, 5), make_b(4, 3, 5), "a", "b") is None
