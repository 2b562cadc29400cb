import numpy as np
import pytest

from stmmmf.core import SparseRatingMatrix
from stmmmf.evaluation import confusion, hr_at_k, hr_table, snapshot, split

# Published 1..5-scale confusion blocks used as fixed oracles for the
# hit-rate computation; None marks the inapplicable-distance cells.
PUBLISHED_TRAIN_BLOCK = {
    1: ([2086, 1865, 864, 70, 3], [0.4268, 0.3815, 0.1768, 0.0143, 0.0006]),
    2: ([160, 3198, 5296, 432, 10], [0.3516, 0.5998, 0.0475, 0.0011, None]),
    3: ([9, 225, 16254, 5173, 55], [0.7485, 0.2486, 0.0029, None, None]),
    4: ([0, 10, 2809, 23892, 628], [0.8739, 0.1257, 0.0004, 0.0, None]),
    5: ([0, 4, 159, 7030, 9767], [0.5759, 0.4145, 0.0094, 0.0002, 0.0]),
}
PUBLISHED_TEST_BLOCK = {
    1: ([231, 248, 505, 230, 8], [0.1890, 0.2029, 0.4133, 0.1882, 0.0065]),
    2: ([82, 331, 1263, 583, 15], [0.1456, 0.5915, 0.2564, 0.0066, None]),
    3: ([30, 285, 2843, 2146, 125], [0.5237, 0.4478, 0.0286, None, None]),
    4: ([19, 68, 2033, 4249, 466], [0.6217, 0.3656, 0.0099, 0.0028, None]),
    5: ([4, 18, 391, 2692, 1136], [0.2679, 0.6348, 0.0922, 0.0042, 0.0009]),
}
ROW_ACTUAL_1, ROW_HR_1 = PUBLISHED_TRAIN_BLOCK[1]


def cm_from_rows(rows):
    return np.array(rows, dtype=np.int64)


def cm_from_block(block):
    return cm_from_rows([block[a][0] for a in range(1, 6)])


# -------------------------------------------------------------------- metrics

def test_mae_cases():
    assert snapshot([(1, 1), (4, 2)]).mae == 1.0
    assert snapshot([(3, 3), (5, 5)]).mae == 0.0
    assert snapshot([(1, 5)]).mae == 4.0


def test_rmse_cases():
    assert snapshot([(1, 1), (4, 2)]).rmse == pytest.approx(np.sqrt(2.0))
    assert snapshot([(2, 2)]).rmse == 0.0
    assert snapshot([(1, 3), (5, 3), (4, 2), (2, 4)]).rmse == 2.0  # constant |error| = 2


def test_metrics_reject_empty():
    with pytest.raises(ValueError):
        snapshot([])


@pytest.mark.parametrize("pairs", [[(1, 2, 3)], [1, 2], [[[1, 2]]]], ids=["3-col", "1-d", "3-d"])
def test_metrics_reject_pairs_of_another_shape(pairs):
    with pytest.raises(ValueError, match=r"pairs must have shape \(n, 2\)"):
        snapshot(pairs)


def test_mae_le_rmse_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 40)
        pairs = rng.integers(1, 6, size=(n, 2))
        snap = snapshot(pairs)
        assert snap.mae <= snap.rmse + 1e-12


def test_mae_equals_rmse_iff_constant_error():
    pairs = [(1, 2), (3, 4), (5, 4)]  # all |err| = 1
    snap = snapshot(pairs)
    assert snap.mae == pytest.approx(snap.rmse)
    assert snap.mae == pytest.approx(1.0)


# ------------------------------------------------------------------ confusion

def test_confusion_counting():
    cm = confusion([(1, 2), (1, 2), (3, 3)], 5)
    assert cm[0, 1] == 2
    assert cm[2, 2] == 1
    assert cm.sum() == 3
    assert cm[0].sum() == 2


def test_confusion_empty_and_row_sums():
    assert confusion([], 5).sum() == 0
    rng = np.random.default_rng(1)
    pairs = rng.integers(1, 6, size=(200, 2))
    cm = confusion(pairs, 5)
    for a in range(1, 6):
        assert cm[a - 1].sum() == int(np.sum(pairs[:, 0] == a))


def test_confusion_rejects_out_of_scale():
    with pytest.raises(ValueError):
        confusion([(0, 1)], 5)
    with pytest.raises(ValueError):
        confusion([(1, 6)], 5)


# -------------------------------------------------------------------- hit rate

def test_hr_reproduces_published_row():
    cm = cm_from_rows([ROW_ACTUAL_1, [0] * 5, [0] * 5, [0] * 5, [0] * 5])
    for k, expected in enumerate(ROW_HR_1):
        assert hr_at_k(cm, 1, k) == pytest.approx(expected, abs=5e-5)


@pytest.mark.parametrize("block", [PUBLISHED_TRAIN_BLOCK, PUBLISHED_TEST_BLOCK])
def test_hr_reproduces_published_blocks(block):
    cm = cm_from_block(block)
    for actual in range(1, 6):
        _, expected_row = block[actual]
        for k, expected in enumerate(expected_row):
            got = hr_at_k(cm, actual, k)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=5e-5)


def test_hr_not_applicable_cells():
    cm = np.ones((5, 5), dtype=np.int64)
    # exactly the star pattern of a 1..5 scale
    expected_na = {(2, 4), (3, 3), (3, 4), (4, 4)}
    for actual in range(1, 6):
        for k in range(5):
            value = hr_at_k(cm, actual, k)
            if (actual, k) in expected_na:
                assert value is None
            else:
                assert value is not None


def test_hr_one_sided_distance_counts():
    # actual=1, K=4 reaches only rating 5, yet the distance is applicable
    cm = cm_from_rows([[0, 0, 0, 0, 10], [0] * 5, [0] * 5, [0] * 5, [0] * 5])
    assert hr_at_k(cm, 1, 4) == 1.0


@pytest.mark.parametrize("actual, k, message", [
    (0, 0, "actual rating outside the scale"),
    (6, 0, "actual rating outside the scale"),
    (1, -1, "k must be >= 0"),
], ids=["actual-0", "actual-6", "k-negative"])
def test_hr_rejects_bad_arguments(actual, k, message):
    cm = cm_from_block(PUBLISHED_TRAIN_BLOCK)
    with pytest.raises(ValueError, match=message):
        hr_at_k(cm, actual, k)


def test_hr_zero_row_is_not_applicable():
    cm = cm_from_rows([[1, 0, 0, 0, 0]] + [[0] * 5] * 4)
    assert hr_at_k(cm, 2, 0) is None


def test_hr_rows_sum_to_one():
    rng = np.random.default_rng(2)
    pairs = rng.integers(1, 6, size=(500, 2))
    cm = confusion(pairs, 5)
    for row in hr_table(cm):
        total = sum(v for v in row if v is not None)
        assert total == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------- split

def make_matrix(n_entries, seed=0):
    rng = np.random.default_rng(seed)
    cells = rng.permutation(40 * 30)[:n_entries]
    users, items = np.divmod(cells, 30)
    ratings = rng.integers(1, 6, size=n_entries)
    return SparseRatingMatrix(40, 30, 5, users, items, ratings)


def test_split_sizes_exact():
    y = make_matrix(1000)
    train, test = split(y, 0.8, seed=7)
    assert train.n_observed == 800
    assert test.n_observed == 200


def test_split_deterministic_and_partition():
    y = make_matrix(500)
    a_train, a_test = split(y, 0.8, seed=3)
    b_train, b_test = split(y, 0.8, seed=3)
    assert a_train.content_hash() == b_train.content_hash()
    assert a_test.content_hash() == b_test.content_hash()
    keys = np.sort(np.r_[a_train.observed_keys(), a_test.observed_keys()])
    np.testing.assert_array_equal(keys, y.observed_keys())
    assert np.intersect1d(a_train.observed_keys(), a_test.observed_keys()).size == 0


def test_split_different_seeds_differ():
    y = make_matrix(500, seed=1)
    a, _ = split(y, 0.8, seed=1)
    b, _ = split(y, 0.8, seed=2)
    assert a.content_hash() != b.content_hash()


def test_split_rejects_degenerate_fraction():
    y = make_matrix(100)
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split(y, frac, seed=0)
