"""Reference: per-prefix values expanded onto every node of a step at once.

The library expands per-prefix values (a node-dependent coefficient, the
cost's H E[x|F0], the centered value and gain tables) onto the nodes one
block at a time.  The functions here expand them onto the whole step in
one ``take`` and then multiply, as the library did before: the cost of
state and control rows, and the product of a per-prefix matrix with node
rows.  They share the (component, node) products and the tree's kernels
with the library, but read the coefficients themselves: ``coeff_rows``
gathers a node-dependent one onto the nodes of a whole step by
``helpers_node_major.coeff_nodes``.
"""

import numpy as np
from helpers_node_major import coeff_nodes

from cmvlq.decomposition import _dot, _mv, _quad


def coeff_prefix(coeff, tree, k):
    """One coefficient at step k per W0 prefix, prefix axis last.

    A shared one comes back as it is, a vector as a column (i, 1).
    """
    if coeff.deterministic:
        base = coeff.base[k]
        return base[:, None] if base.ndim == 1 else base
    return np.moveaxis(coeff.at_w0(k, tree.cum_w0_prefix[k]), 0, -1)


def coeff_rows(coeff, tree, k):
    """One coefficient on every node of step k, node axis last; a shared one as ``coeff_prefix``."""
    if coeff.deterministic:
        return coeff_prefix(coeff, tree, k)
    return np.ascontiguousarray(np.moveaxis(coeff_nodes(coeff, tree, k), 0, -1))


def nonzero_rows(coeff, tree, k):
    """``coeff_rows``, or None where the coefficient is deterministic and zero."""
    return None if coeff.zero_at[k] else coeff_rows(coeff, tree, k)


def ref_prefix_mv(tree, k, mat, rows, product=_mv):
    """product(mat, x), mat @ x by default, per node of step k.

    A per-prefix (i, j, 2**k) mat is expanded onto the whole step first.
    """
    return product(tree.expand_rows(k, mat) if mat.ndim == 3 else mat, rows)


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
            _quad(e, coeff_rows(c.Q, tree, k), e)
            + 2.0 * _quad(e, coeff_rows(c.S, tree, k), v)
            + _quad(v, coeff_rows(c.R, tree, k), v)
        )
        zeta = nonzero_rows(c.zeta, tree, k)
        varpi = nonzero_rows(c.varpi, tree, k)
        if zeta is not None:
            integrand = integrand + 2.0 * _dot(zeta, e)
        if varpi is not None:
            integrand = integrand + 2.0 * _dot(varpi, v)
        total += grid.dt * float(np.dot(tree.probs(k), integrand))
    eT = deviation(grid.n_steps)
    total += float(np.dot(tree.probs(grid.n_steps), _quad(eT, c.QT, eT)))
    return 0.5 * total
