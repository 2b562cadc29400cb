import io
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from oracle import smooth_hinge, smooth_hinge_grad
from stmmmf import core, trainer
from stmmmf.core import FactorModel, SparseRatingMatrix
from stmmmf.selftrain import SelfTrainConfig
from stmmmf.synthetic import planted_matrix, planted_model
from stmmmf.trainer import (
    HingeLoss,
    gd_step,
    initial_model,
    load_checkpoint,
    predict_ratings,
    save_checkpoint,
    train,
)

ONE_CELL = SparseRatingMatrix.from_triples(1, 1, 2, [(0, 0, 1)])


def tiny_model(u, v, theta):
    return FactorModel(np.array([[float(u)]]), np.array([[float(v)]]),
                       np.array([[float(theta)]]))


def random_instance(rng, reject_kink_margin=1e-3):
    """Small random instance whose hinge arguments stay clear of the kinks."""
    while True:
        n, m = rng.integers(2, 9), rng.integers(2, 9)
        d = rng.integers(1, 4)
        R = rng.choice([3, 5])
        u = rng.normal(0, 0.8, (n, d))
        v = rng.normal(0, 0.8, (m, d))
        theta = np.sort(rng.normal(0, 1.2, (n, R - 1)), axis=1)
        cells = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.5]
        if not cells:
            continue
        triples = [(i, j, int(rng.integers(1, R + 1))) for i, j in cells]
        y = SparseRatingMatrix.from_triples(n, m, int(R), triples)
        model = FactorModel(u, v, theta)
        x = np.einsum("ij,ij->i", u[y.users], v[y.items])
        clear = True
        for r in range(1, R):
            t = np.where(r >= y.ratings, 1.0, -1.0)
            z = t * (theta[y.users, r - 1] - x)
            if np.any(np.minimum(np.abs(z), np.abs(z - 1)) < reject_kink_margin):
                clear = False
                break
        if clear:
            return model, y


def loop_loss_and_grad(model, y, reg):
    """Reference objective and gradients: one pass per threshold level."""
    U, V, theta = model.user_factors, model.item_factors, model.thresholds
    x = np.einsum("ij,ij->i", U[y.users], V[y.items])
    total = 0.0
    weights = np.zeros(y.n_observed)
    g_theta = np.zeros_like(theta)
    for r in range(1, y.max_rating):
        t = np.where(r >= y.ratings, 1.0, -1.0)
        z = t * (theta[y.users, r - 1] - x)
        total += smooth_hinge(z).sum()
        coef = t * smooth_hinge_grad(z)
        weights += coef
        g_theta[:, r - 1] = np.bincount(y.users, weights=coef, minlength=y.n_users)
    w = sparse.coo_matrix(
        (weights, (y.users, y.items)), shape=(y.n_users, y.n_items)
    ).tocsr()
    value = total + 0.5 * reg * (np.sum(U**2) + np.sum(V**2))
    return value, (reg * U - w @ V, reg * V - w.T @ U, g_theta)


class RowMajorHingeLoss(HingeLoss):
    """The entry-major kernel: terms as (n_observed, R-1) rows, the hinge
    value summed from 0.5 * (1 - c)^2 - min(z, 0) per term, and the
    threshold gradient from one multi-vector product."""

    def __init__(self, y, reg):
        super().__init__(y, reg)  # keeps the CSR matrices and per-user counts
        levels = np.arange(1, y.max_rating)
        self._t = np.where(levels >= y.ratings[:, None], 1.0, -1.0)
        self._c = np.empty_like(self._t)
        self._h = np.empty_like(self._t)

    def __call__(self, model):
        U, V, y = model.user_factors, model.item_factors, self.y
        x = np.einsum("ij,ij->i", np.repeat(U, self._counts, axis=0), np.take(V, y.items, axis=0))
        z = np.repeat(model.thresholds, self._counts, axis=0)
        z -= x[:, None]
        z *= self._t
        c = np.clip(z, 0.0, 1.0, out=self._c)
        h = np.subtract(1.0, c, out=self._h)
        np.square(h, out=h)
        h *= 0.5
        h -= np.minimum(z, 0.0, out=z)
        value = float(h.sum() + 0.5 * self.reg * (np.sum(U**2) + np.sum(V**2)))
        coef = c
        coef -= 1.0
        coef *= self._t
        w, w_t, by_user = self._csr
        w.data.fill(0.0)
        for column in coef.T:
            w.data += column
        reg = self.reg
        return value, (reg * U - w @ V, reg * V - w_t @ U, by_user @ coef)


def fd_gradients(model, y, reg, h=1e-5):
    u, v, theta = model.user_factors, model.item_factors, model.thresholds
    loss = HingeLoss(y, reg)

    def fd(block, idx, rebuild):
        plus = block.copy(); plus[idx] += h
        minus = block.copy(); minus[idx] -= h
        return (loss(rebuild(plus))[0] - loss(rebuild(minus))[0]) / (2 * h)

    gu = np.array([[fd(u, (i, p), lambda b: FactorModel(b, v, theta))
                    for p in range(u.shape[1])] for i in range(u.shape[0])])
    gv = np.array([[fd(v, (j, p), lambda b: FactorModel(u, b, theta))
                    for p in range(v.shape[1])] for j in range(v.shape[0])])
    gt = np.array([[fd(theta, (i, r), lambda b: FactorModel(u, v, b))
                    for r in range(theta.shape[1])] for i in range(theta.shape[0])])
    return gu, gv, gt


# ------------------------------------------------------------------ objective

def test_objective_hand_computed():
    loss = HingeLoss(ONE_CELL, 0.1)
    assert loss(tiny_model(1, 1, 0))[0] == pytest.approx(1.6, abs=1e-12)
    assert loss(tiny_model(0, 0, 0))[0] == pytest.approx(0.5, abs=1e-12)


def test_objective_empty_matrix():
    empty = SparseRatingMatrix.from_triples(1, 1, 2, [])
    assert HingeLoss(empty, 0.5)(tiny_model(0, 0, 0))[0] == 0.0


def test_objective_nonnegative_and_shape_checked():
    rng = np.random.default_rng(0)
    for _ in range(20):
        model, y = random_instance(rng)
        assert HingeLoss(y, 0.3)(model)[0] >= 0.0
    bad = SparseRatingMatrix.from_triples(2, 1, 2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        HingeLoss(bad, 0.3)(tiny_model(0, 0, 0))


def test_objective_rotation_invariant():
    rng = np.random.default_rng(1)
    model, y = random_instance(rng)
    d = model.n_factors
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotated = FactorModel(model.user_factors @ q, model.item_factors @ q,
                          model.thresholds)
    loss = HingeLoss(y, 0.7)
    a = loss(model)[0]
    b = loss(rotated)[0]
    assert abs(a - b) < 1e-8 * max(1.0, abs(a))


# ------------------------------------------------------------------ gradients

def test_gradients_hand_computed():
    gu, gv, gt = HingeLoss(ONE_CELL, 0.0)(tiny_model(0, 0, 0))[1]
    assert gt[0, 0] == -1.0
    assert gu[0, 0] == 0.0 and gv[0, 0] == 0.0


def test_gradients_zero_in_flat_region():
    # score 5 with threshold 10 and y=1: z = 10 - 5 = 5 >= 1 everywhere
    model = tiny_model(1, 5, 10)
    y = SparseRatingMatrix.from_triples(1, 1, 2, [(0, 0, 1)])
    gu, gv, gt = HingeLoss(y, 0.0)(model)[1]
    assert gu[0, 0] == 0.0 and gv[0, 0] == 0.0 and gt[0, 0] == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(25):
        model, y = random_instance(rng)
        reg = float(rng.uniform(0, 2))
        analytic = HingeLoss(y, reg)(model)[1]
        numeric = fd_gradients(model, y, reg)
        for a, f in zip(analytic, numeric):
            err = np.abs(a - f) / np.maximum.reduce([np.abs(a), np.abs(f), np.ones_like(a)])
            assert err.max() < 1e-4


def test_gradients_unrated_rows_only_regularized():
    y = SparseRatingMatrix.from_triples(2, 2, 3, [(0, 0, 2)])
    model = FactorModel(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
    gu, gv, gt = HingeLoss(y, 0.5)(model)[1]
    np.testing.assert_allclose(gu[1], 0.5 * model.user_factors[1])
    np.testing.assert_allclose(gv[1], 0.5 * model.item_factors[1])
    np.testing.assert_allclose(gt[1], 0.0)


def test_loss_and_grad_matches_per_threshold_loop():
    rng = np.random.default_rng(4)
    for _ in range(25):
        model, y = random_instance(rng)
        reg = float(rng.uniform(0, 2))
        value, grads = HingeLoss(y, reg)(model)
        ref_value, ref_grads = loop_loss_and_grad(model, y, reg)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        for g, ref in zip(grads, ref_grads):
            assert g.tobytes() == ref.tobytes()


def test_hinge_loss_object_matches_loop_on_every_call():
    """One HingeLoss per matrix, called on several models in turn, gives the
    reference gradients bit for bit; the value is within 1e-12 relative
    because the reference sums the thresholds in another order."""
    rng = np.random.default_rng(6)

    def rated(n_users, n_items, R, skip_users):
        triples = [(i, j, int(rng.integers(1, R + 1)))
                   for i in range(n_users) if i not in skip_users
                   for j in range(n_items) if rng.random() < 0.6]
        return SparseRatingMatrix.from_triples(n_users, n_items, R, triples)

    matrices = [random_instance(rng)[1] for _ in range(10)]
    matrices += [
        rated(5, 4, 2, skip_users={1, 4}),  # one threshold column
        rated(6, 7, 10, skip_users={0, 3}),  # nine threshold columns
        SparseRatingMatrix.from_triples(3, 2, 5, []),
    ]
    for y in matrices:
        reg = float(rng.uniform(0, 2))
        loss = HingeLoss(y, reg)
        for _ in range(3):
            d = int(rng.integers(1, 4))
            model = FactorModel(
                rng.normal(0, 0.8, (y.n_users, d)), rng.normal(0, 0.8, (y.n_items, d)),
                np.sort(rng.normal(0, 1.2, (y.n_users, y.max_rating - 1)), axis=1),
            )
            value, grads = loss(model)
            ref_value, ref_grads = loop_loss_and_grad(model, y, reg)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert loss(model)[0] == value
            for g, ref in zip(grads, ref_grads):
                assert g.tobytes() == ref.tobytes()


def test_hinge_loss_call_holds_no_full_gather():
    """A HingeLoss call gathers the entries' factor rows a block at a time:
    its traced peak stays below one unblocked (n_observed, k) float64
    gather, eight times the two block gathers here.  The gradients keep
    the reference bits across many blocks."""
    rng = np.random.default_rng(7)
    n_users = n_items = 512
    n, k = 16 * core.ROW_DOT_BLOCK, 32
    keys = rng.choice(n_users * n_items, size=n, replace=False)
    y = SparseRatingMatrix(n_users, n_items, 2, keys // n_items, keys % n_items,
                           rng.integers(1, 3, n))
    model = FactorModel(rng.normal(0, 0.3, (n_users, k)), rng.normal(0, 0.3, (n_items, k)),
                        np.zeros((n_users, 1)))
    loss = HingeLoss(y, 1.0)  # builds the CSR matrices the matrix fixes
    tracemalloc.start()
    try:
        value, grads = loss(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8
    ref_value, ref_grads = loop_loss_and_grad(model, y, 1.0)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


# -------------------------------------------------------------------- stepping

def test_gd_step_zero_gradient_is_fixed_point():
    model = tiny_model(2, 3, 1)
    zero = (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    out = gd_step(model, zero, 0.5)
    assert out.user_factors[0, 0] == 2.0
    assert out.item_factors[0, 0] == 3.0
    assert out.thresholds[0, 0] == 1.0


def test_gd_step_arithmetic():
    model = tiny_model(2, 0, 0)
    grads = (np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
    out = gd_step(model, grads, 0.5)
    assert out.user_factors[0, 0] == 1.5


@pytest.mark.parametrize("call, message", [
    (lambda: HingeLoss(SparseRatingMatrix.from_triples(1, 1, 5, [(0, 0, 3)]), -1.0),
     "reg must be >= 0"),
    (lambda: gd_step(tiny_model(2, 3, 1), (np.zeros((1, 1)),) * 3, 0.0), "lr must be > 0"),
    (lambda: gd_step(tiny_model(2, 3, 1), (np.zeros((1, 1)),) * 3, -0.5), "lr must be > 0"),
], ids=["reg-negative", "lr-0", "lr-negative"])
def test_guards_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_small_step_decreases_objective():
    rng = np.random.default_rng(3)
    model, y = random_instance(rng)
    reg = 0.4
    loss = HingeLoss(y, reg)
    before, grads = loss(model)
    stepped = gd_step(model, grads, 1e-4)
    assert loss(stepped)[0] < before


# -------------------------------------------------------------------- training

def test_train_recovers_planted_model():
    truth = planted_model(30, 25, rank=2, seed=7)
    y = planted_matrix(truth, observed_frac=0.6, seed=8)
    cfg = SelfTrainConfig(n_factors=4, reg=0.1, lr=0.05, gd_iters=300, tol=1e-12, seed=3)
    model, trace = train(y, cfg)
    preds = predict_ratings(model, y.users, y.items)
    assert np.abs(preds - y.ratings).mean() <= 0.05
    assert trace.objectives.size == trace.iterations + 1


def test_train_evaluates_once_per_trial_step(monkeypatch):
    values = []

    class Recorded(HingeLoss):
        def __call__(self, model):
            out = super().__call__(model)
            values.append(out[0])
            return out

    monkeypatch.setattr(trainer, "HingeLoss", Recorded)
    truth = planted_model(12, 10, rank=2, seed=1)
    y = planted_matrix(truth, observed_frac=0.7, seed=2)
    # lr 10 overshoots, so some trial steps are rejected and halved
    cfg = SelfTrainConfig(n_factors=3, reg=0.2, lr=10.0, gd_iters=20, tol=0.0, seed=5)
    _, trace = train(y, cfg)
    assert len(values) > 1 + trace.iterations
    assert trace.kernel_calls == len(values)
    # replaying the calls as start point plus trial steps gives the trace
    current, accepted = values[0], []
    for value in values[1:]:
        if value <= current:
            current = value
            accepted.append(value)
    assert [values[0], *accepted] == list(trace.objectives)


def test_train_keeps_a_halved_step_size(monkeypatch):
    steps = []

    def recorded(model, grads, lr):
        steps.append(lr)
        return gd_step(model, grads, lr)

    monkeypatch.setattr(trainer, "gd_step", recorded)
    y = planted_matrix(planted_model(12, 10, rank=2, seed=1), 0.7, seed=2)
    # lr 0.2 is rejected once, and 0.1 then holds for every later step
    cfg = SelfTrainConfig(n_factors=3, reg=0.2, lr=0.2, gd_iters=12, tol=0.0, seed=5)
    _, trace = train(y, cfg)
    assert steps == [0.2] * 5 + [0.1] * 8
    assert trace.iterations == 12 and trace.kernel_calls == 1 + 12 + 1


def test_train_stops_when_no_step_size_lowers_the_objective(monkeypatch):
    class Rising(HingeLoss):
        start = None

        def __call__(self, model):
            value, grads = super().__call__(model)
            if self.start is None:  # the starting point
                self.start = value
                return value, grads
            return self.start + 1.0, grads

    y = planted_matrix(planted_model(12, 10, rank=2, seed=1), 0.7, seed=2)
    first = initial_model(y, 3, 5)
    monkeypatch.setattr(trainer, "HingeLoss", Rising)
    model, trace = train(y, SelfTrainConfig(n_factors=3, reg=0.2, seed=5))
    for name in ("user_factors", "item_factors", "thresholds"):
        np.testing.assert_array_equal(getattr(model, name), getattr(first, name))
    assert trace.iterations == 0 and trace.converged is False
    assert trace.objectives.size == 1
    # the start, then one trial per step size from lr = 0.002 down to 1e-18
    assert trace.kernel_calls == 52


def test_train_backtracks_a_step_that_overflows_the_model():
    y = planted_matrix(planted_model(30, 40, 3, seed=1), 0.3, seed=2)
    # the first trial steps overflow the factors themselves
    model, trace = train(y, SelfTrainConfig(lr=1e308, gd_iters=3))
    assert trace.iterations == 3
    assert trace.objectives[-1] < trace.objectives[0]


def test_train_backtracks_an_overflowing_objective_without_warnings():
    y = planted_matrix(planted_model(30, 40, 3, seed=1), 0.3, seed=2)
    # the first trial models are finite, but their objectives overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = train(y, SelfTrainConfig(lr=1e300, gd_iters=3))
    assert trace.iterations == 3


@pytest.mark.filterwarnings("error")
def test_train_rejects_an_overflowing_initial_objective():
    y = planted_matrix(planted_model(30, 40, 3, seed=1), 0.3, seed=2)
    with pytest.raises(ValueError, match=r"^initial objective is not finite at reg=1e\+308$"):
        train(y, SelfTrainConfig(reg=1e308))


def test_gd_step_returns_none_on_overflow():
    model = tiny_model(1, 1, 0)
    grads = (np.array([[1e300]]), np.zeros((1, 1)), np.zeros((1, 1)))
    with np.errstate(over="ignore"):
        assert gd_step(model, grads, 1e300) is None


@pytest.mark.parametrize("max_rating", [2, 5, 10])
def test_train_matches_row_major_kernel_bits(monkeypatch, max_rating):
    """A whole solve with the threshold-major kernel gives the same model
    bytes as with the entry-major one; only the objective's last bits may
    move, because its terms are summed in another order.  Ten factors, the
    loop's default, give the score einsum rows as long as in real solves."""
    rng = np.random.default_rng(max_rating)
    triples = [(i, j, int(rng.integers(1, max_rating + 1)))
               for i in range(60) for j in range(80) if rng.random() < 0.3]
    y = SparseRatingMatrix.from_triples(60, 80, max_rating, triples)
    # lr 0.5 overshoots on some steps, so rejected trial steps are covered
    cfg = SelfTrainConfig(n_factors=10, reg=1.0, lr=0.5, gd_iters=40, tol=0.0, seed=2)
    model, trace = train(y, cfg)
    monkeypatch.setattr(trainer, "HingeLoss", RowMajorHingeLoss)
    ref_model, ref_trace = train(y, cfg)
    for name in ("user_factors", "item_factors", "thresholds"):
        assert getattr(model, name).tobytes() == getattr(ref_model, name).tobytes()
    assert (trace.iterations, trace.kernel_calls) == (ref_trace.iterations, ref_trace.kernel_calls)
    np.testing.assert_allclose(trace.objectives, ref_trace.objectives, rtol=1e-12, atol=0)


def test_train_rejects_empty_matrix():
    empty = SparseRatingMatrix.from_triples(2, 2, 5, [])
    with pytest.raises(ValueError):
        train(empty, SelfTrainConfig(n_factors=2, reg=1.0, lr=0.01, gd_iters=300, tol=1e-6))


def test_train_zero_budget_returns_initial_model():
    y = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3), (1, 1, 2)])
    cfg = SelfTrainConfig(n_factors=2, reg=1.0, lr=0.01, gd_iters=0, tol=1e-6, seed=11)
    model, trace = train(y, cfg)
    assert trace.iterations == 0 and trace.objectives.size == 1
    start = initial_model(y, 2, 11)
    np.testing.assert_array_equal(model.user_factors, start.user_factors)


def test_train_monotone_objective_and_determinism():
    truth = planted_model(12, 10, rank=2, seed=1)
    y = planted_matrix(truth, observed_frac=0.7, seed=2, noise=0.5)
    cfg = SelfTrainConfig(n_factors=3, reg=0.2, lr=0.03, gd_iters=80, tol=0.0, seed=5)
    m1, t1 = train(y, cfg)
    m2, t2 = train(y, cfg)
    assert np.all(np.diff(t1.objectives) <= 0)
    np.testing.assert_array_equal(t1.objectives, t2.objectives)  # bitwise
    np.testing.assert_array_equal(m1.user_factors, m2.user_factors)
    np.testing.assert_array_equal(m1.thresholds, m2.thresholds)


def test_train_stops_once_the_relative_drop_falls_below_tol():
    y = planted_matrix(planted_model(20, 15, rank=2, seed=1), 0.5, seed=2)
    cfg = SelfTrainConfig(n_factors=2, reg=0.1, lr=0.05, gd_iters=500, tol=1e-3, seed=3)
    _, trace = train(y, cfg)
    obj = trace.objectives
    drops = (obj[:-1] - obj[1:]) / np.maximum(obj[:-1], 1.0)
    assert trace.converged and trace.iterations == 249
    # the last accepted step is the first whose drop is below tol
    assert drops[-1] < cfg.tol <= drops[:-1].min()


def test_initial_thresholds_centered():
    y = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3)])
    start = initial_model(y, 2, 0)
    np.testing.assert_allclose(start.thresholds[0], [-1.5, -0.5, 0.5, 1.5])


# ------------------------------------------------------------------ prediction

def test_predict_ratings_cold_user_fallback():
    y = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 1), (0, 1, 2)])
    model = FactorModel(np.full((2, 2), 5.0), np.full((2, 2), 5.0),
                        np.tile([-1.5, -0.5, 0.5, 1.5], (2, 1)))
    out = predict_ratings(model, [0, 1], [0, 0], trained_on=y)
    assert out[0] == 5   # warm user, huge score
    assert out[1] == 3   # cold user: mid-scale ceil(5 / 2)


# ------------------------------------------------------------------ checkpoint

def test_checkpoint_roundtrip_exact():
    rng = np.random.default_rng(9)
    model = FactorModel(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)),
                        rng.normal(size=(4, 4)))
    buf = io.StringIO()
    save_checkpoint(model, buf)
    buf.seek(0)
    back = load_checkpoint(buf)
    np.testing.assert_array_equal(back.user_factors, model.user_factors)
    np.testing.assert_array_equal(back.item_factors, model.item_factors)
    np.testing.assert_array_equal(back.thresholds, model.thresholds)


def per_line_save_checkpoint(model, stream):
    """The per-line checkpoint writer the block writer replaced, kept as the
    byte reference."""
    stream.write(f"STMMMF 1 {model.n_users} {model.n_items} "
                 f"{model.n_factors} {model.max_rating}\n")
    for block in (model.user_factors, model.item_factors, model.thresholds):
        for row in block:
            stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
               1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, -1 / 3, 123456789.0, 1.0]


@pytest.mark.parametrize("seed", range(6))
def test_checkpoint_bytes_match_per_line_writer(seed):
    rng = np.random.default_rng(seed)
    n, m, d, r = (int(k) for k in rng.integers(1, 40, 4))
    if seed == 5:  # more rows than one write block
        n, m, d, r = 17_000, 3, 2, 2

    def block(rows, cols):
        values = rng.normal(0, 10.0 ** rng.integers(-300, 300), (rows, cols))
        edge = rng.random((rows, cols)) < 0.3
        values[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
        return values

    model = FactorModel(block(n, d), block(m, d), block(n, r))
    got, want = io.StringIO(), io.StringIO()
    save_checkpoint(model, got)
    per_line_save_checkpoint(model, want)
    assert got.getvalue() == want.getvalue()
    back = load_checkpoint(io.StringIO(got.getvalue()))
    for name in ("user_factors", "item_factors", "thresholds"):
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes()


@pytest.mark.parametrize("body", [
    "1 2\n3 4 5\n6 7\n",       # short first row
    "1 2 3\n3 4\n6 7\n",       # short second row
    "1 2 3\n\n3 4 5\n6 7\n",   # blank line inside
    "1 2 3\n3 4 5\n",          # missing threshold row
    "1 2 3\n3 4 x\n6 7\n",     # not a number
])
def test_checkpoint_malformed_rows_rejected(body):
    with pytest.raises(ValueError):
        load_checkpoint(io.StringIO("STMMMF 1 1 1 3 3\n" + body))


def test_checkpoint_header_format(tmp_path):
    model = FactorModel(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((2, 4)))
    path = tmp_path / "model.stmmmf"
    save_checkpoint(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "STMMMF 1 2 4 3 5"
    assert len(lines) == 1 + 2 + 4 + 2


def test_checkpoint_rejects_corrupt_header():
    """Every count must be an integer in 0..sys.maxsize, and the header must
    describe a model: a user, an item, a factor and R >= 2.  The two value
    lines would complete a model with no users."""
    for header in ["NOPE 1 1 1 1 2", "STMMMF 2 1 1 1 2", "STMMMF 1 -2 2 1 5", "STMMMF 1 1 1 x 2",
                   "STMMMF 1 1 1 1 99999999999999999999", "STMMMF 1 1 1 1 2 0",
                   "STMMMF 1 0 0 0 0", "STMMMF 1 2 2 1 1", "STMMMF 1 2 2 0 5",
                   "STMMMF 1 0 2 1 5", "STMMMF 1 2 0 1 5"]:
        with pytest.raises(ValueError, match="^not a recognized checkpoint header$"):
            load_checkpoint(io.StringIO(header + "\n0\n0\n"))


def test_checkpoint_rejects_trailing_data():
    buf = io.StringIO()
    save_checkpoint(tiny_model(1, 2, 3), buf)
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(io.StringIO(buf.getvalue() + "4\n"))
