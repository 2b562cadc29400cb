#!/usr/bin/env python3
"""Tour of the core kernels: the smooth hinge, score discretization, and
the average threshold gap that calibrates confidence bands."""

import numpy as np

from stmmmf import FactorModel, avg_threshold_gaps, smooth_hinge, smooth_hinge_grad, t_indicator
from stmmmf.core import discretize_rows

print("smooth hinge: flat above 1, quadratic on (0, 1), linear below 0")
for z in (2.0, 1.0, 0.5, 0.0, -1.0, -2.0):
    print(f"  h({z:+.1f}) = {smooth_hinge(z):.4f}   h'({z:+.1f}) = {smooth_hinge_grad(z):+.4f}")

print("\nthe derivative is capped in [-1, 0], so single ratings can never")
print("yank a threshold arbitrarily hard:")
z = np.linspace(-4, 4, 9)
print("  ", np.round(smooth_hinge_grad(z), 3))

print("\nsign indicator against an observed rating y=3 on a 1..5 scale:")
print("  ", {r: t_indicator(r, 3) for r in range(1, 5)})

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
