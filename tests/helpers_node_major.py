"""Node-major reference: the tree roll-out, cost and Picard sweep per node.

The library runs its tree kernels on (component, node) arrays, one long
row per component.  The functions here are the same recursions written
node-major: every per-node array is (n_nodes, component), coefficients are
gathered onto the nodes by ``w0_of_node``, children are written into
slots 4i..4i+3, and conditioning on the common noise is the probability-
weighted mean over the nodes sharing a W0 prefix, computed by its index
definition.  They share no kernel with the library, only the tree's index
maps, and skip its input checks.
"""

import numpy as np

from cmvlq.coeffs import bar_transform

# signs of (dW0, dW) into each child slot, "+" first: the joint tree's four
# slots and the two of its W0-only form
_JOINT_SIGNS = (np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))
_COMMON_SIGNS = (np.array([1.0, -1.0]), np.zeros(2))


def ref_index_maps(tree):
    """Every per-node layout map of the tree, built by extending the node order step by step.

    Returns a dict of lists over steps 0..n_steps: the W0 prefix id
    ``w0_of_node``, ``atom_of_node``, ``node_probs``, and the increments
    into each node, ``last_dw0`` and ``last_dw`` (empty at step 0).  Each
    child of a node gets the parent's prefix id shifted left by one bit
    plus its slot's W0 bit, the parent's atom, and a quarter (a half on
    the W0-only form) of the parent's probability.
    """
    sign0, sign1 = _JOINT_SIGNS if tree.idiosyncratic else _COMMON_SIGNS
    branches, s = len(sign0), tree.grid.sqrt_dt
    bit0 = (sign0 < 0).astype(np.int64)
    w0 = np.zeros(tree.n_atoms, dtype=np.int64)
    atom = np.arange(tree.n_atoms, dtype=np.int64)
    probs = np.asarray(tree.atom_probs, dtype=float).copy()
    maps = {"w0_of_node": [w0], "atom_of_node": [atom], "node_probs": [probs],
            "last_dw0": [np.zeros(0)], "last_dw": [np.zeros(0)]}
    for _ in range(tree.grid.n_steps):
        count = len(w0)
        w0 = (np.repeat(w0, branches) << 1) | np.tile(bit0, count)
        atom = np.repeat(atom, branches)
        probs = np.repeat(probs, branches) / branches
        for key, value in (("w0_of_node", w0), ("atom_of_node", atom), ("node_probs", probs),
                           ("last_dw0", np.tile(sign0 * s, count)),
                           ("last_dw", np.tile(sign1 * s, count))):
            maps[key].append(value)
    return maps


def coeff_nodes(coeff, tree, k):
    """Shared step array, or the per-prefix values gathered onto the nodes."""
    if coeff.deterministic:
        return coeff.base[k]
    return coeff.at_w0(k, tree.cum_w0_prefix[k])[tree.w0_of_node[k]]


def _mv(mat, vec):
    """mat @ vec on every node, for a shared (i, j) or per-node (n, i, j) mat."""
    if mat.ndim == 2:
        return vec @ mat.T
    return np.einsum("nij,nj->ni", mat, vec)


def _mtv(mat, vec):
    """mat' @ vec on every node."""
    if mat.ndim == 2:
        return vec @ mat
    return np.einsum("nji,nj->ni", mat, vec)


def _dot(coef, vec):
    """coef . vec on every node; coef may be a shared vector."""
    if coef.ndim == 1:
        return vec @ coef
    return np.einsum("ni,ni->n", coef, vec)


def _quad(vec_l, mat, vec_r):
    return _dot(vec_l, _mv(mat, vec_r))


def _children(tree, k, mean, D=None, D0=None):
    """Child node i*4 + j takes mean_i + D dW_j + D0 dW0_j."""
    x = np.repeat(mean, 4, axis=0)
    for load, dw in ((D, tree.last_dw[k + 1]), (D0, tree.last_dw0[k + 1])):
        if load is None:
            continue
        loads = np.repeat(load, 4, axis=0) if load.ndim == 2 else load
        x = x + loads * dw[:, None]
    return x


def ce_f0(tree, k, values):
    """E[values | W0 prefix] on every node: weighted mean over w0_of_node groups."""
    w0, p = tree.w0_of_node[k], tree.probs(k)
    flat = values.reshape(len(values), -1)
    mass = np.bincount(w0, p, minlength=2**k)
    sums = np.stack([np.bincount(w0, p * col, minlength=2**k) for col in flat.T], axis=-1)
    return (sums / mass[:, None])[w0].reshape(values.shape)


def child_mean(tree, k, values):
    """Mean over the children of each step-k node, slots 4i..4i+3."""
    return values.reshape((tree.n_nodes(k), 4) + values.shape[1:]).mean(axis=1)


def simulate_mft(c, tree, grid, u, xi):
    """Per-step node arrays of x_{k+1} = x + dt (A x + B u + F E[x|F0] + b) + D dW + D0 dW0."""
    xi = np.asarray(xi, dtype=float)
    x = np.broadcast_to(xi, (tree.n_atoms, c.n))[tree.atom_of_node[0]]
    values = [x]
    for k in range(grid.n_steps):
        drift = (
            _mv(coeff_nodes(c.A, tree, k), x)
            + _mv(coeff_nodes(c.B, tree, k), u[k])
            + _mv(coeff_nodes(c.F, tree, k), ce_f0(tree, k, x))
            + coeff_nodes(c.b, tree, k)
        )
        x = _children(
            tree, k, x + grid.dt * drift, coeff_nodes(c.D, tree, k), coeff_nodes(c.D0, tree, k)
        )
        values.append(x)
    return values


def eval_cost_mft(c, tree, grid, x, u):
    """Half the expected running plus terminal cost, summed node by node."""
    dev = [v - ce_f0(tree, k, v) @ c.H.T for k, v in enumerate(x)]
    total = 0.0
    for k in range(grid.n_steps):
        e, v = dev[k], u[k]
        integrand = (
            _quad(e, coeff_nodes(c.Q, tree, k), e)
            + 2.0 * _quad(e, coeff_nodes(c.S, tree, k), v)
            + _quad(v, coeff_nodes(c.R, tree, k), v)
            + 2.0 * _dot(coeff_nodes(c.zeta, tree, k), e)
            + 2.0 * _dot(coeff_nodes(c.varpi, tree, k), v)
        )
        total += grid.dt * float(tree.probs(k) @ integrand)
    eT = dev[grid.n_steps]
    total += float(tree.probs(grid.n_steps) @ _quad(eT, c.QT, eT))
    return 0.5 * total


def sweep(c, tree, grid, xi, u):
    """One undamped evaluation of the coupled fixed-point map, node by node.

    Returns (state, predicted costate, new control, change) at control u,
    where change is the control's relative sup-norm change per step.
    """
    cb = bar_transform(c)
    dt = grid.dt
    N = grid.n_steps
    eye = np.eye(c.n)
    x = simulate_mft(c, tree, grid, u, xi)
    xbars = [ce_f0(tree, k, v) for k, v in enumerate(x)]
    ubars = [ce_f0(tree, k, v) for k, v in enumerate(u)]
    cur = x[N] @ c.QT.T + xbars[N] @ (cb.QT - c.QT).T
    pred = [None] * N
    new_u = [None] * N
    change = 0.0
    for k in reversed(range(N)):
        yt = child_mean(tree, k, cur)
        pred[k] = yt
        A = coeff_nodes(c.A, tree, k)
        F = coeff_nodes(c.F, tree, k)
        Q = coeff_nodes(c.Q, tree, k)
        S = coeff_nodes(c.S, tree, k)
        R = coeff_nodes(c.R, tree, k)
        B = coeff_nodes(c.B, tree, k)
        running = (
            _mv(Q, x[k])
            + _mv(coeff_nodes(cb.Q, tree, k) - Q, xbars[k])
            + _mv(S, u[k])
            - _mv(S, ubars[k]) @ c.H
            + coeff_nodes(cb.zeta, tree, k)
        )
        abar = eye + dt * A
        cur = _mtv(abar, yt) + dt * (_mtv(F, ce_f0(tree, k, yt)) + running)
        e = x[k] - xbars[k] @ c.H.T
        rhs = _mtv(S, e) + _mtv(B, yt) + coeff_nodes(c.varpi, tree, k)
        if R.ndim == 2:
            new_u[k] = -np.linalg.solve(R, rhs.T).T
        else:
            new_u[k] = -np.linalg.solve(R, rhs[..., None])[..., 0]
        scale = 1.0 + float(np.max(np.abs(u[k])))
        change = max(change, float(np.max(np.abs(new_u[k] - u[k]))) / scale)
    return x, pred, new_u, change


def solve_coupled(c, tree, grid, xi, *, damping=0.5, max_iter=200, tol=1e-10):
    """The damped Picard iteration on the coupled system, node by node.

    Returns (state, control, predicted costate, cost, residual history)
    at the first sweep whose undamped control change is within tol.
    """
    u = [np.zeros((tree.n_nodes(k), c.d)) for k in range(grid.n_steps)]
    history = []
    for _ in range(max_iter):
        x, pred, new_u, change = sweep(c, tree, grid, xi, u)
        history.append(change)
        if change <= tol:
            return x, u, pred, eval_cost_mft(c, tree, grid, x, u), history
        u = [old + damping * (new - old) for old, new in zip(u, new_u)]
    raise AssertionError(f"reference Picard did not converge in {max_iter} sweeps")
