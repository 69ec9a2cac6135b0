"""Reference for the oracle's gradient: the adjoint sweep without skips.

``oracle.cost_gradient`` skips the conditional-mean folds and linear
terms whose coefficient is zero, as the coefficient sets of both sub-problems
have them.  ``ref_cost_gradient`` is the sweep that computes every term,
zero or not, one term at a time; the library sums each step's terms in one
stacked product, so the two agree up to rounding.
"""

import numpy as np
from helpers_expanded import coeff_prefix, coeff_rows

from cmvlq.decomposition import (
    _abar,
    _atom_values,
    _mtv,
    _mv,
    _plus_prefix,
    _Prefixed,
    _rollout,
    _rows_of,
)


def ref_cost_gradient(c, tree, grid, u, xi):
    """One (n_nodes(k), d) array of cost derivatives per step.

    The same (component, node) sweep as the library's, with every term
    computed whether its coefficient is zero or not.
    """
    N = grid.n_steps
    dt = grid.dt
    u = _rows_of(u, N)
    x, _, xbars = _rollout(_Prefixed(c, tree, grid), u, _atom_values(xi, tree, "xi"), means=True)

    def deviation(k):
        return x[k] - tree.expand_rows(k, c.H @ xbars[k])

    def sym(mats):
        return 0.5 * (mats + np.swapaxes(mats, 0, 1))

    grad_x = sym(c.QT) @ deviation(N)
    grad_x = grad_x - tree.expand_rows(N, c.H.T @ tree.prefix_mean_rows(N, grad_x))
    out = [None] * N
    for k in reversed(range(N)):
        nabla_hat = tree.child_mean_rows(k, grad_x)
        S = coeff_rows(c.S, tree, k)
        xtk = deviation(k)

        gk = _mv(sym(coeff_rows(c.R, tree, k)), u[k]) + _mtv(S, xtk)
        gk = gk + coeff_rows(c.varpi, tree, k)
        gk = gk + _mtv(coeff_rows(c.B, tree, k), nabla_hat)
        out[k] = (gk * (tree.probs(k) * dt)).T

        stage = _mv(sym(coeff_rows(c.Q, tree, k)), xtk) + _mv(S, u[k])
        stage = stage + coeff_rows(c.zeta, tree, k)
        per_prefix = np.zeros((c.n, 1)) - c.H.T @ tree.prefix_mean_rows(k, stage)
        F = coeff_prefix(c.F, tree, k)
        per_prefix = per_prefix + _mtv(F, tree.prefix_mean_rows(k, nabla_hat))
        grad_x = _mtv(_abar(coeff_rows(c.A, tree, k), dt), nabla_hat) + dt * _plus_prefix(
            tree, k, stage, per_prefix
        )
    return out
