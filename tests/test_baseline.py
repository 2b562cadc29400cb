import tracemalloc

import numpy as np
import pytest

from stmmmf.baseline import (
    BATCH_SIZE,
    BaselineConfig,
    BaselineModel,
    _loss,
    predict_baseline_many,
    rounds_experiment,
    strip_overlap,
    train_baseline,
)
from stmmmf.core import ROW_DOT_BLOCK as _LOSS_BLOCK
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


def random_matrix(n_users, n_items, n_observed, seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(n_users * n_items, size=n_observed, replace=False)
    return SparseRatingMatrix(n_users, n_items, 5, keys // n_items, keys % n_items,
                              rng.integers(1, 6, n_observed))


def unblocked_loss(y, mu, bu, bi, p, q, reg):
    pred = mu + bu[y.users] + bi[y.items] + np.einsum("ij,ij->i", p[y.users], q[y.items])
    sse = np.sum((y.ratings - pred) ** 2)
    return sse + reg * (
        np.sum(bu**2) + np.sum(bi**2) + np.sum(p**2) + np.sum(q**2)
    )


def reference_baseline(y, cfg):
    """The trainer with plain row-wise np.add.at and the one-shot loss;
    also returns the final learning rate."""
    rng = np.random.default_rng(cfg.seed)
    mu = float(y.ratings.mean())
    bu = np.zeros(y.n_users)
    bi = np.zeros(y.n_items)
    p = rng.normal(0.0, 0.01, size=(y.n_users, cfg.n_factors))
    q = rng.normal(0.0, 0.01, size=(y.n_items, cfg.n_factors))
    lr = cfg.lr
    prev = np.inf
    for _ in range(cfg.epochs):
        order = rng.permutation(y.n_observed)
        for start in range(0, order.size, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            uu, ii = y.users[batch], y.items[batch]
            pu, qi = p[uu], q[ii]
            err = y.ratings[batch] - (mu + bu[uu] + bi[ii] + np.einsum("ij,ij->i", pu, qi))
            np.add.at(bu, uu, lr * (err - cfg.reg * bu[uu]))
            np.add.at(p, uu, lr * (err[:, None] * qi - cfg.reg * pu))
            np.add.at(bi, ii, lr * (err - cfg.reg * bi[ii]))
            np.add.at(q, ii, lr * (err[:, None] * pu - cfg.reg * qi))
        loss = unblocked_loss(y, mu, bu, bi, p, q, cfg.reg)
        if loss > prev:
            lr *= 0.5
        prev = loss
    return BaselineModel(p, q, bu, bi, mu, y.max_rating), lr


def test_loss_blocks_match_unblocked_bits():
    rng = np.random.default_rng(5)
    for n in (_LOSS_BLOCK - 1, _LOSS_BLOCK, _LOSS_BLOCK + 1, 2 * _LOSS_BLOCK + 3):
        y = random_matrix(97, 211, n, seed=n)
        bu, bi = rng.normal(size=97), rng.normal(size=211)
        p, q = rng.normal(size=(97, 13)), rng.normal(size=(211, 13))
        args = (y, 3.5, bu, bi, p, q, 0.02)
        assert _loss(*args) == unblocked_loss(*args)


@pytest.mark.parametrize("cfg, halves", [
    (BaselineConfig(n_factors=7, epochs=12, lr=0.02, seed=2), True),
    (BaselineConfig(n_factors=4, epochs=3, seed=0), False),
], ids=["lr-halving", "steady"])
def test_train_matches_reference_bits(cfg, halves):
    # 40 users and 150 items: every batch repeats each user ~25 times
    y = random_matrix(40, 150, _LOSS_BLOCK + 1500, seed=8)
    assert y.n_observed > _LOSS_BLOCK and y.n_observed % BATCH_SIZE
    model = train_baseline(y, cfg)
    ref, final_lr = reference_baseline(y, cfg)
    assert (final_lr < cfg.lr) == halves
    for name in ("user_factors", "item_factors", "user_bias", "item_bias"):
        assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name
    assert model.global_mean == ref.global_mean


def test_deterministic_per_seed():
    y = rank_one_matrix()
    cfg = BaselineConfig(n_factors=3, epochs=15, seed=9)
    a = train_baseline(y, cfg)
    b = train_baseline(y, cfg)
    np.testing.assert_array_equal(a.user_factors, b.user_factors)
    np.testing.assert_array_equal(a.item_bias, b.item_bias)


def test_prediction_clamped():
    model = BaselineModel(
        user_factors=np.array([[3.0], [-3.0]]), item_factors=np.array([[3.0]]),
        user_bias=np.array([0.0, 0.0]), item_bias=np.array([0.0]),
        global_mean=3.6, max_rating=5,
    )
    # 3.6 + 9 clamps down to 5, 3.6 - 9 clamps up to 1
    assert predict_baseline_many(model, [0, 1], [0, 0]).tolist() == [5.0, 1.0]


def test_prediction_holds_no_full_gather():
    """predict_baseline_many gathers factor rows a block at a time: its
    traced peak stays below one unblocked (n_test, k) float64 gather,
    eight times the two block gathers here."""
    rng = np.random.default_rng(3)
    n, k = 16 * _LOSS_BLOCK, 32
    model = BaselineModel(rng.normal(size=(300, k)), rng.normal(size=(400, k)),
                          rng.normal(size=300), rng.normal(size=400), 3.5, 5)
    users, items = rng.integers(0, 300, n), rng.integers(0, 400, n)
    tracemalloc.start()
    try:
        predict_baseline_many(model, users, items)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8


def test_all_zero_model_predicts_mean():
    model = BaselineModel(
        user_factors=np.zeros((2, 2)), item_factors=np.zeros((2, 2)),
        user_bias=np.zeros(2), item_bias=np.zeros(2),
        global_mean=3.6, max_rating=5,
    )
    assert predict_baseline_many(model, [0], [1]) == pytest.approx([3.6])


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


def test_rounds_experiment_rejects_other_grid():
    full = rank_one_matrix()
    train_m, test_m = split(full, 0.8, seed=2)
    wider = SparseRatingMatrix(8, 7, 5, train_m.users, train_m.items, train_m.ratings)
    with pytest.raises(ValueError, match="differ"):
        rounds_experiment([wider], test_m, BaselineConfig(epochs=1))
    with pytest.raises(ValueError, match="differ"):
        strip_overlap(wider, test_m)


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


@pytest.mark.parametrize("field, value", [
    ("epochs", -3), ("lr", 0.0), ("reg", -1.0), ("n_factors", -1), ("seed", -1),
])
def test_config_rejects_untrainable(field, value):
    with pytest.raises(ValueError, match=field):
        BaselineConfig(**{field: value})


def test_zero_factors_is_a_bias_model():
    y = rank_one_matrix()
    model = train_baseline(y, BaselineConfig(n_factors=0, epochs=5, seed=0))
    assert model.user_factors.shape == (8, 0)
    assert np.all(np.isfinite(predict_baseline_many(model, y.users, y.items)))
