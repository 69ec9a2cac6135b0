"""References by dense Hessian probing: the oracle's QP solve and the convexity margins.

``dense_qp_exact`` minimizes the discretized cost over all adapted
controls the slow, direct way.  It assembles the Hessian column by
column with one ``cost_gradient`` call per unit vector, symmetrizes it
and hands the system to ``np.linalg.solve``, so it shares nothing with
the oracle's conjugate-gradient loop but the gradient itself.
``dense_margins`` takes the smallest eigenvalues of the same Hessian, for
the zero-data problem, in the control metric.
"""

import numpy as np
from scipy.linalg import block_diag, null_space

from cmvlq.coeffs import homogeneous
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


def dense_margins(c, tree, grid):
    """Smallest eigenvalues (full, bar, breve) of the homogeneous cost's Hessian.

    The metric is dt times the node probability, per control component.
    bar restricts the Hessian to the F0-adapted controls (each node takes
    its W0 prefix's value) and breve to their orthogonal complement in the
    metric, the centered controls; an empty class has the margin inf.
    """
    ch = homogeneous(c)
    shapes = [(tree.n_nodes(k), c.d) for k in range(grid.n_steps)]
    splits = np.cumsum([n * d for n, d in shapes])[:-1]
    zero_xi = np.zeros((tree.n_atoms, c.n))

    def hessian_column(vec):
        u = TreeProcess(tree, [p.reshape(s) for p, s in zip(np.split(vec, splits), shapes)], F_ADAPTED)
        return np.concatenate([g.ravel() for g in cost_gradient(ch, tree, grid, u, zero_xi)])

    dim = sum(n * d for n, d in shapes)
    H = np.stack([hessian_column(e) for e in np.eye(dim)], axis=1)
    w = np.sqrt(np.concatenate([np.repeat(grid.dt * tree.probs(k), c.d) for k in range(grid.n_steps)]))
    H = 0.5 * (H + H.T) / np.outer(w, w)
    expand = block_diag(*(np.kron(np.eye(2**k)[tree.w0_of_node[k]], np.eye(c.d)) for k in range(grid.n_steps)))
    bar = np.linalg.qr(w[:, None] * expand)[0]
    breve = null_space(bar.T)

    def smallest(basis):
        return float(np.linalg.eigvalsh(basis.T @ H @ basis).min()) if basis.shape[1] else np.inf

    return float(np.linalg.eigvalsh(H).min()), smallest(bar), smallest(breve)
