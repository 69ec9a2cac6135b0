"""Reference for the oracle's QP solve: dense Hessian probing.

``dense_qp_exact`` minimizes the discretized cost over all adapted
controls the slow, direct way.  It assembles the Hessian column by
column with one ``cost_gradient`` call per unit vector, symmetrizes it
and hands the system to ``np.linalg.solve``, so it shares nothing with
the oracle's conjugate-gradient loop but the gradient itself.
"""

import numpy as np

from cmvlq.decomposition import eval_cost_mft, simulate_mft
from cmvlq.lattice import F_ADAPTED, TreeProcess
from cmvlq.oracle import cost_gradient


def dense_qp_exact(c, tree, grid, xi):
    """Return the optimal control (a TreeProcess) and its cost."""
    shapes = [(tree.n_nodes(k), c.d) for k in range(grid.n_steps)]
    sizes = [int(np.prod(s)) for s in shapes]
    splits = np.cumsum(sizes)[:-1]
    dim = sum(sizes)

    def control(vec):
        parts = np.split(vec, splits)
        return TreeProcess(tree, [p.reshape(s) for p, s in zip(parts, shapes)], F_ADAPTED)

    def grad_of(vec):
        grads = cost_gradient(c, tree, grid, control(vec), xi)
        return np.concatenate([g.ravel() for g in grads])

    g0 = grad_of(np.zeros(dim))
    H = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        H[:, j] = grad_of(e) - g0
    H = 0.5 * (H + H.T)
    u = control(np.linalg.solve(H, -g0))
    x = simulate_mft(c, tree, grid, u, xi)
    return u, eval_cost_mft(c, x, u, tree, grid)
