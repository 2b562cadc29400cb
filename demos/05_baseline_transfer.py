#!/usr/bin/env python3
"""Does self-training help a different learner?  Retrain a plain biased
matrix-factorization model on each round's augmented matrix and track its
test error.  Takes about 30 s on a 2-core machine."""

import io

import numpy as np

from stmmmf import SelfTrainConfig, selftrain_loop, split
from stmmmf.baseline import BaselineConfig, rounds_experiment
from stmmmf.ingest import parse_ml100k, preprocess
from stmmmf.synthetic import synthetic_ratings_file

raw = parse_ml100k(io.StringIO(synthetic_ratings_file(seed=20260809)))
y = preprocess(raw, min_ratings=20).matrix
train_m, test_m = split(y, 0.8, seed=42)

rounds = [train_m]
def keep(report, model, y_in, y_out):
    rounds.append(y_out)

print("running 6 augment-and-refine rounds...")
cfg = SelfTrainConfig(seed=0, max_rounds=6, patience=50)
selftrain_loop(train_m, cfg, test_m, callback=keep)

# pseudo-ratings can land on held-out cells; rounds_experiment drops them
# before each retraining
metrics = rounds_experiment(rounds, test_m, BaselineConfig(seed=0))

print(f"\n{'round':>5} {'matrix entries':>14} {'test mae':>9} {'test rmse':>10}")
for k, (m, snap) in enumerate(zip(rounds, metrics)):
    marker = "  <- no augmentation yet" if k == 0 else ""
    print(f"{k:>5} {m.n_observed:>14} {snap.mae:>9.4f} {snap.rmse:>10.4f}{marker}")

best = int(np.argmin([m.mae for m in metrics]))
print(f"\nbest round for the baseline: {best}")
print("the transferred pseudo-ratings carry the margin model's per-user")
print("threshold knowledge, which a plain biased factorization lacks.")
