"""Reference definitions the tests hold the package's kernels to.

smooth_hinge and smooth_hinge_grad are the scalar/array smooth hinge of
Rennie & Srebro (ICML 2005) that trainer.HingeLoss computes inline;
dense is a matrix's ratings laid out on its full grid.
"""

import numpy as np


def smooth_hinge(z):
    """Smooth hinge loss: 0 for z >= 1, quadratic on (0, 1), linear below.

    Continuously differentiable, non-negative, non-increasing, 1-Lipschitz.
    Accepts scalars or arrays.  With c = clip(z, 0, 1) the loss is
    0.5 * (1 - c)^2 - min(z, 0), the same bits as the piecewise form.
    """
    z = np.asarray(z, dtype=np.float64)
    out = 0.5 * (1.0 - np.clip(z, 0.0, 1.0)) ** 2 - np.minimum(z, 0.0)
    return float(out) if out.ndim == 0 else out


def smooth_hinge_grad(z):
    """Derivative of smooth_hinge, clip(z, 0, 1) - 1; always in [-1, 0]."""
    z = np.asarray(z, dtype=np.float64)
    out = np.clip(z, 0.0, 1.0) - 1.0
    return float(out) if out.ndim == 0 else out


def dense(y):
    """Dense (n_users, n_items) ratings of y with 0 for unobserved cells, in
    the narrowest unsigned dtype that holds max_rating (the dtype of the
    self-training loop's candidate grid)."""
    grid = np.zeros((y.n_users, y.n_items), dtype=np.min_scalar_type(y.max_rating))
    grid[y.users, y.items] = y.ratings
    return grid
