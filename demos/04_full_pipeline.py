#!/usr/bin/env python3
"""End-to-end pipeline at benchmark shape: write a rating file, ingest it,
split, self-train for a few rounds, and print the evaluation tables.

Points STMMMF_ML100K at a real tab-separated rating file to run on that
instead of the synthetic stand-in.  Takes about 4 s on a 2-core machine.
"""

import io
import os

import numpy as np

from stmmmf import SelfTrainConfig, confusion, hr_table, selftrain_loop, split
from stmmmf.ingest import parse_ml100k, preprocess
from stmmmf.synthetic import synthetic_ratings_file
from stmmmf.trainer import predict_ratings

path = os.environ.get("STMMMF_ML100K")
if path:
    print(f"ingesting {path}")
    raw = parse_ml100k(path)
else:
    print("no STMMMF_ML100K set; generating the synthetic benchmark-shaped file")
    raw = parse_ml100k(io.StringIO(synthetic_ratings_file(seed=20260809)))

result = preprocess(raw, min_ratings=20)
y = result.matrix
sparsity = 1.0 - y.n_observed / (y.n_users * y.n_items)
print(f"matrix: {y.n_users} users x {y.n_items} items, "
      f"{y.n_observed} ratings, sparsity {sparsity:.2%}")

train_m, test_m = split(y, 0.8, seed=42)
print(f"split: {train_m.n_observed} train / {test_m.n_observed} test")

cfg = SelfTrainConfig(seed=0, max_rounds=3)
res = selftrain_loop(train_m, cfg, test_m)
for r in res.reports:
    print(f"round {r.iteration}: {r.candidates} confident cells, "
          f"+{r.augmented} augmented, -{r.refined} refined, test MAE {r.test_mae:.4f}")

preds = predict_ratings(res.model, test_m.users, test_m.items, trained_on=train_m)
pairs = np.column_stack([test_m.ratings, preds])
cm = confusion(pairs, y.max_rating)
print("\ntest confusion matrix (rows actual, columns predicted):")
print(cm)
print("\nHR@K per actual rating ('*' = distance not on the scale):")
for actual, row in enumerate(hr_table(cm), start=1):
    cells = " ".join("   * " if v is None else f"{v:.3f}" for v in row)
    print(f"  rating {actual}: {cells}")
