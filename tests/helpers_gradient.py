"""Reference for the oracle's gradient: the adjoint sweep without skips.

``oracle.cost_gradient`` skips the conditional-mean folds and linear
terms whose coefficient is zero, as the plain views of both sub-problems
have them.  ``ref_cost_gradient`` is the sweep that computes every term,
zero or not, so the two must agree exactly.
"""

import numpy as np

from cmvlq.decomposition import _mtv, _mv, coeff_nodes, simulate_mft


def ref_cost_gradient(c, tree, grid, u, xi):
    """One (n_nodes(k), d) array of cost derivatives per step."""
    x = simulate_mft(c, tree, grid, u, xi)
    N = grid.n_steps
    dt = grid.dt
    eye = np.eye(c.n)

    def deviation(k):
        _, xbar = tree.ce_f0_step(k, x.values[k])
        return x.values[k] - xbar @ c.H.T

    def sym(mats):
        return 0.5 * (mats + np.swapaxes(mats, -1, -2))

    xt = deviation(N)
    qx = xt @ (0.5 * (c.QT + c.QT.T))
    _, ce = tree.ce_f0_step(N, qx)
    grad_x = qx - ce @ c.H
    out = [None] * N
    for k in reversed(range(N)):
        nabla_hat = tree.child_mean(k, grad_x)
        A = coeff_nodes(c.A, tree, k)
        B = coeff_nodes(c.B, tree, k)
        F = coeff_nodes(c.F, tree, k)
        Q = sym(coeff_nodes(c.Q, tree, k))
        S = coeff_nodes(c.S, tree, k)
        R = sym(coeff_nodes(c.R, tree, k))
        zeta = coeff_nodes(c.zeta, tree, k)
        varpi = coeff_nodes(c.varpi, tree, k)
        xtk = deviation(k)

        gk = _mv(R, u.values[k]) + _mtv(S, xtk) + varpi + _mtv(B, nabla_hat)
        out[k] = (tree.probs(k) * dt)[:, None] * gk

        stage = _mv(Q, xtk) + _mv(S, u.values[k]) + zeta
        _, ce_stage = tree.ce_f0_step(k, stage)
        fterm = _mtv(F, nabla_hat)
        _, ce_f = tree.ce_f0_step(k, fterm)
        grad_x = (
            dt * (stage - ce_stage @ c.H)
            + _mtv(eye + dt * A, nabla_hat)
            + dt * ce_f
        )
    return out
