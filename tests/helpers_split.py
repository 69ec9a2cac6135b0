"""Reference for the two sub-problems: their own recursions, costs and L loop.

The library runs the conditional-mean and centered problems through the
full problem's code on their own coefficient sets (``coeffs.bar_transform``
and ``coeffs.breve_as_plain``).  The functions here are the dedicated
versions, each reading only the fields its sub-problem uses: the
bar recursion driven by the common noise alone, the centered recursion
driven by the idiosyncratic noise alone, their two cost sums, the
centered closed loop under the Pi feedback, and the value function as
three separate recursions (Riccati, linear and constant), on the
common-noise prefixes and as ODEs, where the library runs one recursion
on the augmented state z = [x; 1].  They share only the (component,
node) products and the tree's kernels with the library, and skip its
input checks.  ``ref_tree_sweep`` is the augmented recursion on all 2**k
prefixes of each step, where the library runs it on the k+1 W0 levels;
it shares the library's one-step update and control matrix.
"""

import numpy as np
from helpers_expanded import coeff_prefix, coeff_rows, nonzero_rows

from cmvlq.decomposition import (
    _centered_atoms,
    _dot,
    _mv,
    _plus_prefix,
    _quad,
)
from cmvlq.lattice import w0_prefix_cums
from cmvlq.riccati import _augmented, _control_matrix, _fine_steps, _tree_step


def ref_simulate_bar(cb, tree, grid, v, xi_bar):
    """Per-step node arrays of y_{k+1} = y + dt (A y + B v + b) + D0 dW0.

    cb is the conditional-mean set, whose drift A is the full problem's A + F.
    """
    y = np.broadcast_to(np.asarray(xi_bar, dtype=float), (tree.n_nodes(0), cb.n)).T.copy()
    values = [y.T]
    for k in range(grid.n_steps):
        drift = _mv(coeff_rows(cb.A, tree, k), y) + _mv(coeff_rows(cb.B, tree, k), v.values[k].T)
        drift = _plus_prefix(tree, k, drift, coeff_prefix(cb.b, tree, k))
        y = tree.children_rows(k, y + grid.dt * drift, D0=coeff_rows(cb.D0, tree, k))
        values.append(y.T)
    return values


def ref_simulate_breve(c, tree, grid, alpha, xi_breve):
    """Per-step node arrays of z_{k+1} = z + dt (A z + B alpha) + D dW."""
    z = np.asarray(xi_breve, dtype=float)[tree.atom_of_node[0]].T.copy()
    values = [z.T]
    for k in range(grid.n_steps):
        drift = _mv(coeff_rows(c.A, tree, k), z) + _mv(coeff_rows(c.B, tree, k), alpha.values[k].T)
        z = tree.children_rows(k, z + grid.dt * drift, coeff_rows(c.D, tree, k))
        values.append(z.T)
    return values


def ref_breve_closed_loop(c, tree, grid, xi_breve, pi):
    """(component, node) state and control rows of the centered optimum.

    z_{k+1} = z + dt (A z + B a) + D dW under a = -gain z, with Pi's gain
    expanded from the prefixes onto the nodes.
    """
    dt = grid.dt
    z = np.ascontiguousarray(_centered_atoms(xi_breve, tree).T)
    states, controls = [z], []
    for k in range(grid.n_steps):
        gain = tree.expand_rows(k, np.moveaxis(pi.gain_state[k], 0, -1))
        a = -_mv(gain, z)
        controls.append(a)
        drift = _mv(coeff_rows(c.A, tree, k), z) + _mv(coeff_rows(c.B, tree, k), a)
        z = tree.children_rows(k, z + dt * drift, nonzero_rows(c.D, tree, k))
        states.append(z)
    return states, controls


def _lq_cost(tree, grid, states, controls, Q, S, R, QT, zeta=None, varpi=None):
    total = 0.0
    for k in range(grid.n_steps):
        e, u = states[k].T, controls[k].T
        integrand = (
            _quad(e, coeff_rows(Q, tree, k), e)
            + 2.0 * _quad(e, coeff_rows(S, tree, k), u)
            + _quad(u, coeff_rows(R, tree, k), u)
        )
        if zeta is not None:
            integrand = (
                integrand
                + 2.0 * _dot(coeff_rows(zeta, tree, k), e)
                + 2.0 * _dot(coeff_rows(varpi, tree, k), u)
            )
        total += grid.dt * float(np.dot(tree.probs(k), integrand))
    eT = states[grid.n_steps].T
    total += float(np.dot(tree.probs(grid.n_steps), _quad(eT, QT, eT)))
    return 0.5 * total


def ref_cost_bar(cb, tree, grid, y, v):
    """Bar cost: transformed weights, both linear terms."""
    return _lq_cost(
        tree, grid, y.values, v.values, cb.Q, cb.S, cb.R, cb.QT, cb.zeta, cb.varpi
    )


def ref_cost_breve(c, tree, grid, z, alpha):
    """Centered cost: original weights, no linear terms."""
    return _lq_cost(tree, grid, z.values, alpha.values, c.Q, c.S, c.R, c.QT)


def rel_gap(values, ref) -> float:
    """Largest |values - ref| over the largest |ref|, for arrays or lists of them.

    Exact agreement gives 0, also against an all-zero reference.
    """
    a, b = (np.concatenate([np.ravel(x) for x in v]) if isinstance(v, list) else np.ravel(v)
            for v in (values, ref))
    assert a.shape == b.shape
    gap = float(np.max(np.abs(a - b), initial=0.0))
    return gap / float(np.max(np.abs(b))) if gap else 0.0


def ref_tree_sweep(p):
    """The augmented value tables and feedbacks per common-noise prefix: (table, feedback).

    Prefix q at step k has the children 2q and 2q+1, reached by the
    common-noise increments +sqrt(dt) and -sqrt(dt).
    """
    grid = p.grid()
    N = grid.n_steps
    cums = w0_prefix_cums(grid)
    table = [None] * N + [np.broadcast_to(np.pad(p.QT, (0, 1)), (2**N, p.n + 1, p.n + 1)).copy()]
    feedback = [None] * N
    for k in reversed(range(N)):
        plus, minus = table[k + 1][0::2], table[k + 1][1::2]
        coefficients = _augmented(p, k, cums[k])
        _, B, _, _, R, _, _ = coefficients
        hat = 0.5 * (plus + minus)
        G = _control_matrix(grid.dt, B, R, hat)
        table[k], feedback[k] = _tree_step(grid, plus, minus, hat, G, coefficients)
    return table, feedback


def ref_solve_l(cb):
    """Exact dynamic programming for the quadratic part per prefix: (values, gains).

    Named for L, it takes any plain set, the centered one included.
    """
    grid = cb.grid()
    N, dt = grid.n_steps, grid.dt
    cums = w0_prefix_cums(grid)
    eye = np.eye(cb.n)
    values = [None] * N + [np.broadcast_to(cb.QT, (2**N, cb.n, cb.n)).copy()]
    gains = [None] * N
    for k in reversed(range(N)):
        A, B, S, Q, R = (
            co.at_w0(k, cums[k]) for co in (cb.A, cb.B, cb.S, cb.Q, cb.R)
        )
        nxt = values[k + 1]
        hat = 0.5 * (nxt[0::2] + nxt[1::2])
        Abar = eye + dt * A
        hatB = hat @ (dt * B)
        G = dt * R + np.transpose(dt * B, (0, 2, 1)) @ hatB
        G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
        M = np.transpose(Abar, (0, 2, 1)) @ hatB + dt * S
        gains[k] = np.linalg.solve(G, np.transpose(M, (0, 2, 1)))
        quad = np.transpose(Abar, (0, 2, 1)) @ (hat @ Abar) + dt * Q - M @ gains[k]
        values[k] = 0.5 * (quad + np.transpose(quad, (0, 2, 1)))
    return values, gains


def ref_tree_offset(cb, values):
    """Affine value parts per prefix from L's values: (offset, gain_const, constant).

    The constant carries the idiosyncratic-noise term dt D' hat D / 2, so
    the centered set's values give Pi's constant too.
    """
    grid = cb.grid()
    N, dt, sq = grid.n_steps, grid.dt, grid.sqrt_dt
    cums = w0_prefix_cums(grid)
    eye = np.eye(cb.n)
    offset = [None] * N + [np.zeros((2**N, cb.n))]
    gain_c = [None] * N
    const = [None] * N + [np.zeros(2**N)]
    for k in reversed(range(N)):
        Ab, B, Sb, R, b, D, D0, zb, varpi = (
            co.at_w0(k, cums[k])
            for co in (cb.A, cb.B, cb.S, cb.R, cb.b, cb.D, cb.D0, cb.zeta, cb.varpi)
        )
        nxt = values[k + 1]
        hat = 0.5 * (nxt[0::2] + nxt[1::2])
        cov = 0.5 * sq * (nxt[0::2] - nxt[1::2])
        Abar = eye + dt * Ab
        Bbar = dt * B
        hatB = hat @ Bbar
        G = dt * R + np.transpose(Bbar, (0, 2, 1)) @ hatB
        G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
        M = np.transpose(Abar, (0, 2, 1)) @ hatB + dt * Sb
        gnxt = offset[k + 1]
        ghat = 0.5 * (gnxt[0::2] + gnxt[1::2])
        covg = 0.5 * sq * (gnxt[0::2] - gnxt[1::2])
        chat = 0.5 * (const[k + 1][0::2] + const[k + 1][1::2])
        bdt = dt * b
        h = (
            np.einsum("pij,pj->pi", hat, bdt)
            + np.einsum("pij,pj->pi", cov, D0)
            + ghat
        )
        m = dt * varpi + np.einsum("pji,pj->pi", Bbar, h)
        gc = np.linalg.solve(G, m[..., None])[..., 0]
        gain_c[k] = gc
        offset[k] = (
            np.einsum("pji,pj->pi", Abar, h)
            + dt * zb
            - np.einsum("pij,pj->pi", M, gc)
        )
        const[k] = (
            chat
            + 0.5 * dt * np.einsum("pi,pij,pj->p", D, hat, D)
            + 0.5 * np.einsum("pi,pij,pj->p", bdt, hat, bdt)
            + np.einsum("pi,pi->p", bdt, np.einsum("pij,pj->pi", cov, D0) + ghat)
            + 0.5 * dt * np.einsum("pi,pij,pj->p", D0, hat, D0)
            + np.einsum("pi,pi->p", covg, D0)
            - 0.5 * np.einsum("pi,pi->p", m, gc)
        )
    return offset, gain_c, const


def ref_ode_sweep(p, dt_target):
    """RK4 sweep of the Riccati, linear and constant equations: (values, offset, constant).

    dP = -(A'P + PA + Q - W R^-1 W'), W = PB + S;
    dg = -(A'g + Pb + zeta - W R^-1 (B'g + varpi));
    dc = -(b'g + D'PD/2 + D0'PD0/2 - (B'g + varpi)' R^-1 (B'g + varpi)/2),
    on the library's fine grid; p is deterministic.
    """
    grid = p.grid()
    n_sub = _fine_steps(grid, dt_target)
    h = grid.dt / n_sub
    n_fine = grid.n_steps * n_sub
    values = np.empty((n_fine + 1, p.n, p.n))
    offset = np.empty((n_fine + 1, p.n))
    const = np.empty(n_fine + 1)
    P, g, cv = np.array(p.QT, dtype=float), np.zeros(p.n), 0.0
    values[-1], offset[-1], const[-1] = P, g, cv
    idx = n_fine
    for k in reversed(range(grid.n_steps)):
        A, B, S, Q, R, b, D, D0, zeta, varpi = (
            getattr(p, f).at_step(k)
            for f in ("A", "B", "S", "Q", "R", "b", "D", "D0", "zeta", "varpi")
        )

        def rhs(P, g):
            W = P @ B + S
            wv = B.T @ g + varpi
            r = np.linalg.solve(R, wv)
            return (
                -(A.T @ P + P @ A + Q - W @ np.linalg.solve(R, W.T)),
                -(A.T @ g + P @ b + zeta - W @ r),
                -(b @ g + 0.5 * D @ P @ D + 0.5 * D0 @ P @ D0 - 0.5 * wv @ r),
            )

        for _ in range(n_sub):
            k1 = rhs(P, g)
            k2 = rhs(P - 0.5 * h * k1[0], g - 0.5 * h * k1[1])
            k3 = rhs(P - 0.5 * h * k2[0], g - 0.5 * h * k2[1])
            k4 = rhs(P - h * k3[0], g - h * k3[1])
            P = P - (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            P = 0.5 * (P + P.T)
            g = g - (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            cv = cv - (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            idx -= 1
            values[idx], offset[idx], const[idx] = P, g, cv
    return values, offset, const
