#!/usr/bin/env python3
"""Tour of the core kernels: the smooth hinge the solver sums, score
discretization, and the average threshold gap that calibrates confidence
bands."""

import numpy as np

from stmmmf import FactorModel, avg_threshold_gaps
from stmmmf.core import SparseRatingMatrix, discretize_rows
from stmmmf.trainer import HingeLoss

# One rating 1 on a two-level scale: a single term whose hinge argument is
# theta - U.V = z when U = [[0]], V = [[1]] and theta = [[z]].  With no
# regularizer the objective is h(z) and its threshold gradient h'(z).
one_term = HingeLoss(SparseRatingMatrix.from_triples(1, 1, 2, [(0, 0, 1)]), 0.0)


def hinge(z):
    value, (_, _, g_theta) = one_term(FactorModel([[0.0]], [[1.0]], [[z]]))
    return value, g_theta[0, 0]


print("smooth hinge: flat above 1, quadratic on (0, 1), linear below 0")
for z in (2.0, 1.0, 0.5, 0.0, -1.0, -2.0):
    h, dh = hinge(z)
    print(f"  h({z:+.1f}) = {h:.4f}   h'({z:+.1f}) = {dh:+.4f}")

print("\nthe derivative is capped in [-1, 0], so single ratings can never")
print("yank a threshold arbitrarily hard:")
print("  ", np.round([hinge(z)[1] for z in np.linspace(-4, 4, 9)], 3))

# At zero scores and thresholds every term sits at z = 0, where h' = -1, so
# the threshold gradient is -T(r, y): a descent step moves threshold r by T.
rated_3 = HingeLoss(SparseRatingMatrix.from_triples(1, 1, 5, [(0, 0, 3)]), 0.0)
_, (_, _, g_theta) = rated_3(FactorModel([[0.0]], [[0.0]], np.zeros((1, 4))))
print("\nsign T(r, y) of each threshold's descent step against an observed")
print("rating y=3 on a 1..5 scale:")
print("  ", {r: int(-g) for r, g in enumerate(g_theta[0], start=1)})

# One user's thresholds split the real line into five intervals; row k of
# the scores is looked up against threshold row k.
thresholds = np.array([[1.5, 2.5, 3.5, 4.5]])
scores = np.array([[-10.0, 1.5, 2.0, 3.49, 3.5, 3.51, 100.0]])
print("\ndiscretization against thresholds [1.5, 2.5, 3.5, 4.5]:")
for x, r in zip(scores[0], discretize_rows(thresholds, scores)[0]):
    print(f"  score {x:+8.2f} -> rating {r}")
print("\nwith a margin of 0.25 each band shrinks by 0.25 at both inner ends;")
print("a score that no band holds gets 0 (how confidence bands are scanned):")
for x, r in zip(scores[0], discretize_rows(thresholds, scores, 0.25)[0]):
    print(f"  score {x:+8.2f} -> rating {r}")

uneven = FactorModel(
    user_factors=np.ones((1, 1)),
    item_factors=np.ones((1, 1)),
    thresholds=np.array([[0.0, 1.0, 3.0, 4.0]]),
)
gaps, _ = avg_threshold_gaps(uneven)
print("\naverage threshold gap of [0, 1, 3, 4]:", float(gaps[0]))
print("confidence bands are measured in units of this per-user gap.")
