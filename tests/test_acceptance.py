"""Acceptance gate: one test per release criterion, each printing a
verdict line (run with `pytest tests/test_acceptance.py -v -s`).

The desk-scale checks run on the real 943 x 1682 rating file when
STMMMF_ML100K points at one, and otherwise on the seeded synthetic
stand-in of the same shape, sparsity pattern, and label skew.
"""

import functools
import io
import os
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import stmmmf as st
from stmmmf.baseline import BaselineConfig, rounds_experiment
from stmmmf.core import FactorModel, SparseRatingMatrix, discretize_rows
from stmmmf.evaluation import confusion, hr_at_k, hr_table, snapshot, split
from stmmmf.ingest import load_matrix, parse_ml100k, preprocess, save_matrix
from stmmmf.selftrain import (
    SelfTrainConfig,
    candidate_levels,
    low_confidence_observed,
    selftrain_loop,
    skew_allocation,
)
from stmmmf.synthetic import planted_matrix, planted_model, synthetic_ratings_file
from stmmmf.trainer import (
    HingeLoss,
    load_checkpoint,
    predict_ratings,
    save_checkpoint,
    train,
)

DESK_SEED = 20260809
SPLIT_SEED = 42
LOOP_SEED = 0


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")
        return wrapper
    return decorate


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def desk_run():
    """One 50-round desk-scale run shared by criteria 5 through 8."""
    path = os.environ.get("STMMMF_ML100K")
    if path:
        raw = parse_ml100k(path)
    else:
        raw = parse_ml100k(io.StringIO(synthetic_ratings_file(seed=DESK_SEED)))
    y = preprocess(raw, min_ratings=20).matrix
    train_m, test_m = split(y, 0.8, seed=SPLIT_SEED)

    hr_label1 = {}
    snapshots = [train_m]

    def watch(report, model, y_in, y_out):
        if report.iteration in (1, 50):
            preds = predict_ratings(model, y_in.users, y_in.items)
            cm = confusion(np.column_stack([y_in.ratings, preds]), y.max_rating)
            hr_label1[report.iteration] = hr_at_k(cm, 1, 0)
        if report.iteration <= 10:
            snapshots.append(y_out)

    cfg = SelfTrainConfig(
        seed=LOOP_SEED, tau_augment=0.4999, tau_refine=0.10,
        sample_pct=100.0, cap=5000, max_rounds=50, patience=50,
    )
    started = time.monotonic()
    result = selftrain_loop(train_m, cfg, test_m, callback=watch)
    elapsed = time.monotonic() - started
    return SimpleNamespace(
        matrix=y, train=train_m, test=test_m, result=result,
        hr_label1=hr_label1, snapshots=snapshots, elapsed=elapsed,
    )


# ----------------------------------------------------------------- criterion 1

@criterion(1, "analytic gradients match finite differences on 200 instances")
def test_gradient_oracle():
    rng = np.random.default_rng(77)
    started = time.monotonic()
    checked = 0
    while checked < 200:
        n, m = rng.integers(2, 9), rng.integers(2, 9)
        d = int(rng.integers(1, 4))
        levels = int(rng.choice([3, 5]))
        u = rng.normal(0, 0.8, (n, d))
        v = rng.normal(0, 0.8, (m, d))
        theta = np.sort(rng.normal(0, 1.2, (n, levels - 1)), axis=1)
        cells = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.5]
        if not cells:
            continue
        triples = [(i, j, int(rng.integers(1, levels + 1))) for i, j in cells]
        y = SparseRatingMatrix.from_triples(int(n), int(m), levels, triples)
        model = FactorModel(u, v, theta)

        # skip instances with hinge arguments inside a kink neighborhood
        x = np.einsum("ij,ij->i", u[y.users], v[y.items])
        near_kink = False
        for r in range(1, levels):
            t = np.where(r >= y.ratings, 1.0, -1.0)
            z = t * (theta[y.users, r - 1] - x)
            if np.any(np.minimum(np.abs(z), np.abs(z - 1)) < 1e-3):
                near_kink = True
                break
        if near_kink:
            continue

        reg = float(rng.uniform(0, 2))
        loss = HingeLoss(y, reg)
        analytic = loss(model)[1]
        step = 1e-5

        def fd_block(block, rebuild):
            out = np.empty_like(block)
            for idx in np.ndindex(block.shape):
                plus = block.copy(); plus[idx] += step
                minus = block.copy(); minus[idx] -= step
                out[idx] = (loss(rebuild(plus))[0] - loss(rebuild(minus))[0]) / (2 * step)
            return out

        numeric = (
            fd_block(u, lambda b: FactorModel(b, v, theta)),
            fd_block(v, lambda b: FactorModel(u, b, theta)),
            fd_block(theta, lambda b: FactorModel(u, v, b)),
        )
        for a, f in zip(analytic, numeric):
            scale = np.maximum.reduce([np.abs(a), np.abs(f), np.ones_like(a)])
            assert (np.abs(a - f) / scale).max() < 1e-4
        checked += 1
    assert time.monotonic() - started < 30.0


# ----------------------------------------------------------------- criterion 2

@criterion(2, "hand-computed objectives are exact")
def test_objective_fixtures():
    y = SparseRatingMatrix.from_triples(1, 1, 2, [(0, 0, 1)])
    loaded = FactorModel(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]))
    flat = FactorModel(np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0]]))
    loss = HingeLoss(y, 0.1)
    assert abs(loss(loaded)[0] - 1.6) <= 1e-12
    assert abs(loss(flat)[0] - 0.5) <= 1e-12


# ----------------------------------------------------------------- criterion 3

@criterion(3, "planted rank-2 model recovered to train MAE <= 0.05")
def test_planted_recovery():
    started = time.monotonic()
    truth = planted_model(30, 25, rank=2, seed=7)
    y = planted_matrix(truth, observed_frac=0.6, seed=8)
    cfg = st.SelfTrainConfig(n_factors=4, reg=0.1, lr=0.05, gd_iters=300, tol=1e-12, seed=3)
    model, trace = train(y, cfg)
    preds = predict_ratings(model, y.users, y.items)
    assert np.abs(preds - y.ratings).mean() <= 0.05
    assert trace.iterations <= 300
    assert time.monotonic() - started < 10.0


# ----------------------------------------------------------------- criterion 4

@criterion(4, "hit rates reproduce the published confusion-row values")
def test_hr_oracle_published_rows():
    from test_evaluation import PUBLISHED_TEST_BLOCK, PUBLISHED_TRAIN_BLOCK

    for block in (PUBLISHED_TRAIN_BLOCK, PUBLISHED_TEST_BLOCK):
        cm = np.array([block[a][0] for a in range(1, 6)], dtype=np.int64)
        for actual in range(1, 6):
            for k, expected in enumerate(block[actual][1]):
                got = hr_at_k(cm, actual, k)
                if expected is None:
                    assert got is None  # the published '*' cells
                else:
                    assert got is not None and abs(got - expected) <= 5e-5

    # applicability pattern for every 1..5 row with non-empty rows
    full = np.ones((5, 5), dtype=np.int64)
    stars = {
        (actual, k)
        for actual in range(1, 6)
        for k in range(5)
        if hr_at_k(full, actual, k) is None
    }
    assert stars == {(2, 4), (3, 3), (3, 4), (4, 4)}


# ----------------------------------------------------------------- criterion 5

@pytest.mark.slow
@criterion(5, "round-1 bookkeeping is exact at benchmark scale")
def test_bookkeeping_exact(desk_run):
    assert desk_run.matrix.n_users == 943
    assert desk_run.matrix.n_items == 1682
    assert desk_run.matrix.n_observed == 100000
    first = desk_run.result.reports[0]
    assert first.observed == 80000
    assert first.unobserved == 1506126
    assert first.augmented == min(5000, first.candidates)
    for report in desk_run.result.reports:
        assert report.observed + report.unobserved == 943 * 1682
        assert report.augmented == min(5000, report.candidates)


# ----------------------------------------------------------------- criterion 6

@pytest.mark.slow
@criterion(6, "candidate sets grow and stay heavily overlapped")
def test_monotonicity_trend(desk_run):
    reports = desk_run.result.reports[:5]
    assert len(reports) == 5
    counts = [r.candidates for r in reports]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    retained = [r.retained_frac for r in reports[1:]]
    assert all(v >= 0.80 for v in retained)
    assert desk_run.elapsed < 20 * 60


# ----------------------------------------------------------------- criterion 7

@pytest.mark.slow
@criterion(7, "training-set HR@0 for rating 1 rises by at least 0.25")
def test_minority_label_hit_rate_rises(desk_run):
    assert len(desk_run.result.reports) == 50
    start = desk_run.hr_label1[1]
    end = desk_run.hr_label1[50]
    assert end - start >= 0.25


# ----------------------------------------------------------------- criterion 8

@pytest.mark.slow
@criterion(8, "augmented matrices improve the biased-MF baseline")
def test_baseline_transfer(desk_run):
    rounds = desk_run.snapshots[:11]
    assert len(rounds) == 11
    metrics = rounds_experiment(rounds, desk_run.test, BaselineConfig(seed=0))
    round0 = metrics[0].mae
    assert any(m.mae < round0 for m in metrics[1:])


# ----------------------------------------------------------------- criterion 9

@criterion(9, "module property suite holds")
def test_property_suite():
    rng = np.random.default_rng(5)

    # band disjointness under uniform threshold gaps with tau2 < tau1
    scores = rng.uniform(-1.5, 6.5, 500)
    theta = np.tile([1.0, 2.0, 3.0, 4.0], (1, 1))
    model = FactorModel(np.ones((1, 1)), scores[:, None], theta)
    empty = SparseRatingMatrix.from_triples(1, 500, 5, [])
    filled = SparseRatingMatrix.from_triples(
        1, 500, 5, [(0, j, 1) for j in range(500)]
    )
    confident = candidate_levels(model, empty, 0.3)
    fuzzy_items = filled.items[low_confidence_observed(model, filled, 0.15)]
    assert set(np.nonzero(confident)[1]).isdisjoint(fuzzy_items)

    # augmented triples rediscretize to their own rating; test set untouched
    truth = planted_model(40, 30, rank=2, seed=1)
    full = planted_matrix(truth, observed_frac=0.5, seed=2, noise=0.4)
    train_m, test_m = split(full, 0.8, seed=3)
    test_hash = test_m.content_hash()
    cells = train_m.n_users * train_m.n_items

    def check_added(report, loop_model, y_in, y_out):
        added = np.setdiff1d(y_out.observed_keys(), y_in.observed_keys())
        dense = y_out.to_dense()
        for key in added:
            u, i = divmod(int(key), y_out.n_items)
            score = float(loop_model.user_factors[u] @ loop_model.item_factors[i])
            assert discretize_rows(loop_model.thresholds[u:u + 1], [[score]])[0, 0] == dense[u, i]
        assert report.observed + report.unobserved == cells

    cfg = SelfTrainConfig(
        n_factors=4, reg=0.2, lr=0.02, gd_iters=60, tol=1e-7, seed=5,
        cap=30, max_rounds=3,
    )
    first = selftrain_loop(train_m, cfg, test_m, callback=check_added)
    second = selftrain_loop(train_m, cfg, test_m)
    assert test_m.content_hash() == test_hash
    assert [r.candidates for r in first.reports] == [r.candidates for r in second.reports]
    np.testing.assert_array_equal(
        first.model.user_factors, second.model.user_factors
    )

    # metric identities
    pairs = rng.integers(1, 6, size=(300, 2))
    metrics = snapshot(pairs)
    assert metrics.mae <= metrics.rmse
    for row in hr_table(confusion(pairs, 5)):
        total = sum(v for v in row if v is not None)
        assert abs(total - 1.0) <= 1e-9

    # split partition exactness
    a, b = split(full, 0.8, seed=9)
    assert a.n_observed == round(0.8 * full.n_observed)
    merged = np.sort(np.r_[a.observed_keys(), b.observed_keys()])
    np.testing.assert_array_equal(merged, full.observed_keys())

    # round trips
    buf = io.StringIO()
    save_matrix(train_m, buf)
    buf.seek(0)
    assert load_matrix(buf).content_hash() == train_m.content_hash()
    buf = io.StringIO()
    save_checkpoint(first.model, buf)
    buf.seek(0)
    reloaded = load_checkpoint(buf)
    np.testing.assert_array_equal(reloaded.user_factors, first.model.user_factors)
    np.testing.assert_array_equal(reloaded.thresholds, first.model.thresholds)


# ---------------------------------------------------------------- criterion 10

@criterion(10, "skew quotas match an exact-arithmetic evaluation")
def test_skew_allocation_oracle():
    shares = [Fraction(1, 10), Fraction(1, 10), Fraction(3, 10), Fraction(3, 10), Fraction(2, 10)]
    total = 1000
    weights = [1 - z for z in shares]
    denom = sum(weights)
    exact = [total * w / denom for w in weights]
    assert all(q.denominator == 1 for q in exact)
    assert [int(q) for q in exact] == [225, 225, 175, 175, 200]
    got = skew_allocation([float(z) for z in shares], total)
    assert list(got) == [int(q) for q in exact]
    assert got.sum() == total
