import numpy as np
import pytest

from stmmmf.baseline import (
    BaselineConfig,
    BaselineModel,
    _add_at,
    predict_baseline,
    predict_baseline_many,
    rounds_experiment,
    strip_overlap,
    train_baseline,
)
from stmmmf.core import SparseRatingMatrix
from stmmmf.evaluation import split


def rank_one_matrix():
    # outer product of {1,2} vectors stays an exact rank-1 integer matrix
    p = np.array([1, 2, 1, 2, 2, 1, 2, 1])
    q = np.array([2, 1, 1, 2, 1, 2])
    dense = np.outer(p, q)
    triples = [(i, j, int(dense[i, j])) for i in range(8) for j in range(6)]
    return SparseRatingMatrix.from_triples(8, 6, 5, triples)


def test_rank_one_fit():
    y = rank_one_matrix()
    cfg = BaselineConfig(n_factors=1, reg=0.0, epochs=400, lr=0.02, seed=1)
    model = train_baseline(y, cfg)
    preds = predict_baseline_many(model, y.users, y.items)
    rmse = np.sqrt(np.mean((preds - y.ratings) ** 2))
    assert rmse <= 0.01


def test_zero_epochs_is_global_mean():
    y = rank_one_matrix()
    cfg = BaselineConfig(n_factors=2, epochs=0, seed=4)
    model = train_baseline(y, cfg)
    assert model.global_mean == pytest.approx(y.ratings.mean())
    assert np.all(model.user_bias == 0) and np.all(model.item_bias == 0)
    preds = predict_baseline_many(model, y.users, y.items)
    rmse = np.sqrt(np.mean((preds - y.ratings) ** 2))
    assert rmse == pytest.approx(y.ratings.std(), abs=1e-3)


def test_layered_scatter_matches_add_at_bits():
    rng = np.random.default_rng(12)
    for size, n_targets in ((1, 3), (1024, 5), (1024, 200), (257, 1)):
        index = rng.integers(0, n_targets, size)  # every index repeats heavily
        vec, rows = rng.normal(size=n_targets), rng.normal(size=(n_targets, 4))
        dvec, drows = rng.normal(size=size), rng.normal(size=(size, 4))
        ref_vec, ref_rows = vec.copy(), rows.copy()
        np.add.at(ref_vec, index, dvec)
        np.add.at(ref_rows, index, drows)
        _add_at(index, (vec, dvec), (rows, drows))
        assert vec.tobytes() == ref_vec.tobytes()
        assert rows.tobytes() == ref_rows.tobytes()


def test_deterministic_per_seed():
    y = rank_one_matrix()
    cfg = BaselineConfig(n_factors=3, epochs=15, seed=9)
    a = train_baseline(y, cfg)
    b = train_baseline(y, cfg)
    np.testing.assert_array_equal(a.user_factors, b.user_factors)
    np.testing.assert_array_equal(a.item_bias, b.item_bias)


def test_prediction_clamped():
    model = BaselineModel(
        user_factors=np.array([[3.0]]), item_factors=np.array([[3.0]]),
        user_bias=np.array([0.0]), item_bias=np.array([0.0]),
        global_mean=3.6, max_rating=5,
    )
    assert predict_baseline(model, 0, 0) == 5.0  # 3.6 + 9 clamps down
    low = BaselineModel(
        user_factors=np.array([[-3.0]]), item_factors=np.array([[3.0]]),
        user_bias=np.array([0.0]), item_bias=np.array([0.0]),
        global_mean=3.6, max_rating=5,
    )
    assert predict_baseline(low, 0, 0) == 1.0


def test_cold_id_falls_back_to_known_terms():
    model = BaselineModel(
        user_factors=np.zeros((1, 2)), item_factors=np.zeros((1, 2)),
        user_bias=np.array([0.5]), item_bias=np.array([-0.2]),
        global_mean=3.6, max_rating=5,
    )
    assert predict_baseline(model, 5, 0) == pytest.approx(3.4)   # mu + item bias
    assert predict_baseline(model, 0, 9) == pytest.approx(4.1)   # mu + user bias
    assert predict_baseline(model, 7, 9) == pytest.approx(3.6)   # mu only


def test_all_zero_model_predicts_mean():
    model = BaselineModel(
        user_factors=np.zeros((2, 2)), item_factors=np.zeros((2, 2)),
        user_bias=np.zeros(2), item_bias=np.zeros(2),
        global_mean=3.6, max_rating=5,
    )
    assert predict_baseline(model, 0, 1) == pytest.approx(3.6)


def test_rounds_experiment_shapes_and_determinism():
    full = rank_one_matrix()
    train_m, test_m = split(full, 0.8, seed=2)
    cfg = BaselineConfig(n_factors=2, epochs=10, seed=3)
    one = rounds_experiment([train_m], test_m, cfg)
    assert len(one) == 1
    twice = rounds_experiment([train_m, train_m], test_m, cfg)
    assert twice[0] == twice[1]


def test_rounds_experiment_rejects_overlap():
    full = rank_one_matrix()
    train_m, test_m = split(full, 0.8, seed=2)
    with pytest.raises(ValueError):
        rounds_experiment([full], test_m, BaselineConfig(epochs=1))


def test_strip_overlap_removes_only_test_cells():
    full = rank_one_matrix()
    train_m, test_m = split(full, 0.8, seed=2)
    assert strip_overlap(train_m, test_m) is train_m  # already disjoint
    cleaned = strip_overlap(full, test_m)
    assert cleaned.n_observed == full.n_observed - test_m.n_observed
    assert not np.any(cleaned.contains(test_m.users, test_m.items))


def test_empty_training_rejected():
    empty = SparseRatingMatrix.from_triples(2, 2, 5, [])
    with pytest.raises(ValueError):
        train_baseline(empty, BaselineConfig())
