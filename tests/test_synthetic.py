import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from stmmmf.core import SparseRatingMatrix
from stmmmf.evaluation import split
from stmmmf.ingest import PreprocessResult, RawRatings, parse_ml100k, preprocess
from stmmmf.synthetic import planted_matrix, planted_model, synthetic_ratings_file

DESK_SEED = 20260809


def test_planted_model_shapes_and_skew():
    model = planted_model(12, 9, rank=3, seed=0, score_shift=0.5)
    assert model.user_factors.shape == (12, 3)
    assert model.item_factors.shape == (9, 3)
    assert model.max_rating == 5
    np.testing.assert_allclose(model.thresholds[0], [-2.0, -1.0, 0.0, 1.0])


def test_planted_model_jitter_keeps_rows_sorted():
    model = planted_model(40, 10, rank=2, seed=1, threshold_jitter=0.5)
    assert np.all(np.diff(model.thresholds, axis=1) >= 0)
    # rows actually differ across users
    assert np.ptp(model.thresholds[:, 0]) > 0


def test_planted_matrix_counts_and_determinism():
    model = planted_model(20, 15, rank=2, seed=2)
    a = planted_matrix(model, observed_frac=0.4, seed=3)
    b = planted_matrix(model, observed_frac=0.4, seed=3)
    assert a.n_observed == round(0.4 * 20 * 15)
    assert a.content_hash() == b.content_hash()


def test_ratings_file_shape_guarantees():
    text = synthetic_ratings_file(
        seed=4, n_users=50, n_items=80, n_ratings=1500, min_per_user=10
    )
    result = preprocess(parse_ml100k(io.StringIO(text)), min_ratings=0)
    y = result.matrix
    assert y.n_users == 50 and y.n_items == 80
    assert y.n_observed == 1500
    assert y.user_counts().min() >= 10
    assert np.bincount(y.items, minlength=80).min() >= 1
    assert result.n_duplicates == 0


def test_ratings_file_deterministic():
    kwargs = dict(n_users=30, n_items=40, n_ratings=700, min_per_user=5)
    assert synthetic_ratings_file(seed=9, **kwargs) == synthetic_ratings_file(seed=9, **kwargs)
    assert synthetic_ratings_file(seed=9, **kwargs) != synthetic_ratings_file(seed=10, **kwargs)


def test_ratings_file_rejects_impossible_totals():
    with pytest.raises(ValueError):
        synthetic_ratings_file(seed=0, n_users=10, n_items=5, n_ratings=20, min_per_user=10)


@pytest.mark.parametrize("n_ratings, min_per_user, message", [
    (10, 5, "min_per_user 5 exceeds n_items 3"),
    (3, 2, "total too small for the minimum per row"),
    (7, 1, "total too large for the maximum per row"),  # 2 users x 3 items hold 6
], ids=["min-per-user-above-n-items", "fewer-ratings-than-the-minimum", "more-ratings-than-cells"])
def test_ratings_file_names_the_total_it_cannot_meet(n_ratings, min_per_user, message):
    with pytest.raises(ValueError, match=message):
        synthetic_ratings_file(seed=0, n_users=2, n_items=3, n_ratings=n_ratings,
                               min_per_user=min_per_user)


def test_ratings_file_rejects_counts_below_the_seeded_items():
    # 10 items round-robin over 2 users seed 5 items each; 8 ratings cannot
    # give both users 5
    with pytest.raises(ValueError, match="cannot meet the totals"):
        synthetic_ratings_file(seed=0, n_users=2, n_items=10, n_ratings=8, min_per_user=1)


def test_ratings_file_peak_stays_under_five_texts():
    """No users x items grid is built, the scores are freed before
    formatting, ratings are discretized a block of rows at a time and rows
    are formatted from the four columns a block at a time: what remains is
    the columns, the text's blocks and the joined text (7.4 texts if all
    of it stays alive)."""
    tracemalloc.start()
    try:
        text = synthetic_ratings_file(seed=3, n_users=400, n_items=600, n_ratings=40_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)


# ------------------------------------------- the desk data path, pinned


@pytest.fixture(scope="module")
def desk_text():
    return synthetic_ratings_file(seed=DESK_SEED)


@pytest.mark.parametrize("shape, digest", [
    ({}, "4c9e9349db9e34fbd1d390f67568859ef5f6ea48efeeeb1f1dd177683b4cff5f"),
    ({"seed": 0}, "1559bfd9460d84534c47e7994207089ac1cacbc40a6321fc4c7f8d397dc61146"),
    # 4 users reach the row cap of 600 items
    ({"seed": 3, "n_users": 400, "n_items": 600, "n_ratings": 40_000},
     "df0e067134993a0cb6ff2b92996262e1924386d9ed9fa542e2d489c3d228c0ab"),
], ids=["desk", "seed-0", "seed-3-capped"])
def test_desk_text_is_pinned(desk_text, shape, digest):
    text = synthetic_ratings_file(**shape) if shape else desk_text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_desk_preprocess_and_split_are_pinned(desk_text):
    result = preprocess(parse_ml100k(io.StringIO(desk_text)), 20)
    y = result.matrix
    assert y.content_hash() == "06608c34a95c510ea803ef7ae454cbfface8d1ca4b93eac41430e5aa57f6af8b"
    np.testing.assert_array_equal(result.user_ids, np.arange(1, 944))
    np.testing.assert_array_equal(result.item_ids, np.arange(1, 1683))
    assert result.n_duplicates == 0
    train, test = split(y, 0.8, 42)
    assert train.content_hash() == "7825e7942e90cd8b8bebd89543c7744779d01b564521f9fef8d2fce6ffb886e3"
    assert test.content_hash() == "de60d706cbdf1ece1e2416e438188f7010d8ad6182ad46837b29553292586724"


def reference_preprocess(raw, min_ratings, max_rating=5):
    """preprocess as it was before the one-sort fast path: two stable
    sorts, then np.unique and np.isin for the user filter."""
    if len(raw) == 0:
        return PreprocessResult(
            SparseRatingMatrix.from_triples(1, 1, max_rating, []),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0,
        )
    key = raw.user_ids * (raw.item_ids.max() + 1) + raw.item_ids
    order = np.argsort(raw.timestamps, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    key_sorted = key[order]
    keep = order[np.r_[key_sorted[1:] != key_sorted[:-1], True]]
    users, items, ratings = raw.user_ids[keep], raw.item_ids[keep], raw.ratings[keep]
    ext_users, counts = np.unique(users, return_counts=True)
    mask = np.isin(users, ext_users[counts >= min_ratings])
    users, items, ratings = users[mask], items[mask], ratings[mask]
    user_ids, u_idx = np.unique(users, return_inverse=True)
    item_ids, i_idx = np.unique(items, return_inverse=True)
    matrix = SparseRatingMatrix(
        max(user_ids.size, 1), max(item_ids.size, 1), max_rating, u_idx, i_idx, ratings,
    )
    return PreprocessResult(matrix, user_ids, item_ids, len(raw) - keep.size)


def random_raw(seed, duplicates):
    """Sparse external ids, ties in timestamps and, if asked, repeated pairs."""
    rng = np.random.default_rng(seed)
    user_pool = rng.choice(10**6, size=25, replace=False)
    item_pool = rng.choice(10**4, size=40, replace=False)
    cells = rng.choice(25 * 40, size=400, replace=duplicates)
    users, items = user_pool[cells // 40], item_pool[cells % 40]
    return RawRatings(users, items, rng.integers(1, 6, size=400), rng.integers(0, 5, size=400))


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_preprocess_matches_the_two_sort_reference(seed, duplicates):
    raw = random_raw(seed, duplicates)
    counts = np.unique(reference_preprocess(raw, 0).matrix.users, return_counts=True)[1]
    kept_users = []
    for min_ratings in (0, int(np.median(counts)), counts.max() + 1):
        got, want = preprocess(raw, min_ratings), reference_preprocess(raw, min_ratings)
        assert got.matrix.content_hash() == want.matrix.content_hash()
        for a, b in ((got.user_ids, want.user_ids), (got.item_ids, want.item_ids)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got.n_duplicates == want.n_duplicates
        assert (got.n_duplicates > 0) == duplicates
        kept_users.append(got.user_ids.size)
    assert kept_users[0] == 25 and 0 < kept_users[1] < 25 and kept_users[2] == 0
