"""Reference: per-prefix values expanded onto every node of a step at once.

The library expands per-prefix values (a node-dependent coefficient, the
cost's H E[x|F0], the centered value and gain tables) onto the nodes one
block at a time.  The functions here expand them onto the whole step in
one ``take`` and then multiply, as the library did before: the cost of
state and control rows, and the product of a per-prefix matrix with node
rows.  They share the (component, node) products and the tree's kernels
with the library.
"""

import numpy as np

from cmvlq.decomposition import _coeff_rows, _dot, _mv, _nonzero, _quad


def ref_prefix_mv(tree, k, mat, rows):
    """mat @ x per node of step k, a per-prefix (i, j, 2**k) mat expanded first."""
    return _mv(tree.expand_rows(k, mat) if mat.ndim == 3 else mat, rows)


def ref_cost_rows(c, tree, grid, x, u, xbars=None):
    """The mean-field cost of state rows x under control rows u, each step at once."""
    has_h = c.H.any()

    def deviation(k):
        if not has_h:
            return x[k]
        xbar = xbars[k] if xbars is not None else tree.prefix_mean_rows(k, x[k])
        return x[k] - tree.expand_rows(k, c.H @ xbar)

    total = 0.0
    for k in range(grid.n_steps):
        e, v = deviation(k), u[k]
        integrand = (
            _quad(e, _coeff_rows(c.Q, tree, k), e)
            + 2.0 * _quad(e, _coeff_rows(c.S, tree, k), v)
            + _quad(v, _coeff_rows(c.R, tree, k), v)
        )
        zeta = _nonzero(c.zeta, tree, k)
        varpi = _nonzero(c.varpi, tree, k)
        if zeta is not None:
            integrand = integrand + 2.0 * _dot(zeta, e)
        if varpi is not None:
            integrand = integrand + 2.0 * _dot(varpi, v)
        total += grid.dt * float(np.dot(tree.probs(k), integrand))
    eT = deviation(grid.n_steps)
    total += float(np.dot(tree.probs(grid.n_steps), _quad(eT, c.QT, eT)))
    return 0.5 * total
