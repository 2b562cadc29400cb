import io

import numpy as np
import pytest

from stmmmf.ingest import parse_ml100k, preprocess
from stmmmf.synthetic import planted_matrix, planted_model, synthetic_ratings_file


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
