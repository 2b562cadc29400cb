#!/usr/bin/env python3
"""Fit the margin factorization on a planted low-rank rating matrix and
watch the objective fall; finish with the predicted ratings of a corner
of the matrix."""

import numpy as np

from stmmmf import Hyperparams, predict_ratings, train
from stmmmf.synthetic import planted_matrix, planted_model

truth = planted_model(n_users=30, n_items=25, rank=2, seed=7)
y = planted_matrix(truth, observed_frac=0.6, seed=8)
print(f"planted matrix: {y.n_users} x {y.n_items}, {y.n_observed} observed entries")
print("rating shares:", np.round(y.rating_shares(), 3))

params = Hyperparams(reg=0.1, lr=0.05, max_iters=300, tol=1e-10, seed=3)
model, trace = train(y, params, n_factors=4)

print(f"\nran {trace.iterations} accepted steps, converged={trace.converged}")
marks = np.linspace(0, trace.objectives.size - 1, 8).astype(int)
for k in marks:
    print(f"  step {k:3d}: objective {trace.objectives[k]:10.3f}")
print("threshold-order violations seen:", trace.order_violations)

preds = predict_ratings(model, y.users, y.items)
print(f"\ntrain MAE after fitting: {np.abs(preds - y.ratings).mean():.4f}")

users, items = np.divmod(np.arange(5 * 8), 8)
print("predicted ratings, corner of the matrix (users 0-4, items 0-7):")
print(predict_ratings(model, users, items).reshape(5, 8))
