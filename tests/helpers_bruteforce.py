"""Slow, loop-based reference implementations used as test oracles.

Everything here enumerates increment histories explicitly and computes
conditional expectations by grouping, sharing no vectorized code with
the package.  History order matches the documented tree node order:
atoms outermost, then branch digits (+,+), (+,-), (-,+), (-,-).
"""

import numpy as np

PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def brute_ce(hists, vals, atom_probs, n_steps_so_far):
    """Conditional mean given the common-noise sign prefix."""
    groups = {}
    for (a, h), v in zip(hists, vals):
        key = tuple(s0 for s0, _ in h)
        p = atom_probs[a] * 0.25**n_steps_so_far
        num, den = groups.get(key, (0.0, 0.0))
        groups[key] = (num + p * np.asarray(v, float), den + p)
    return [groups[tuple(s0 for s0, _ in h)][0] / groups[tuple(s0 for s0, _ in h)][1] for a, h in hists]


def brute_simulate_mft(c, xi_atoms, atom_probs, u_arrays, grid):
    """Forward states per history, list of per-step value lists."""
    N = grid.n_steps
    dt = grid.dt
    s = grid.sqrt_dt
    hists = [(a, ()) for a in range(len(atom_probs))]
    x = [np.array(xi_atoms[a], dtype=float) for a, _ in hists]
    all_states = [list(x)]
    all_hists = [list(hists)]
    for k in range(N):
        xbar = brute_ce(hists, x, atom_probs, k)
        new_hists, new_x = [], []
        for i, (a, h) in enumerate(hists):
            cum0 = s * sum(p0 for p0, _ in h)
            A = c.A.at_w0(k, [cum0])[0]
            F = c.F.at_w0(k, [cum0])[0]
            B = c.B.at_w0(k, [cum0])[0]
            bb = c.b.at_w0(k, [cum0])[0]
            Dv = c.D.at_w0(k, [cum0])[0]
            D0v = c.D0.at_w0(k, [cum0])[0]
            drift = A @ x[i] + B @ u_arrays[k][i] + F @ xbar[i] + bb
            base = x[i] + dt * drift
            for p0, p1 in PAIRS:
                new_hists.append((a, h + ((p0, p1),)))
                new_x.append(base + Dv * (p1 * s) + D0v * (p0 * s))
        hists, x = new_hists, new_x
        all_hists.append(list(hists))
        all_states.append(list(x))
    return all_hists, all_states


def brute_cost_mft(c, xi_atoms, atom_probs, u_arrays, grid):
    """Exhaustive mean-field cost: simulate, group, and sum per history."""
    N = grid.n_steps
    dt = grid.dt
    s = grid.sqrt_dt
    all_hists, all_states = brute_simulate_mft(c, xi_atoms, atom_probs, u_arrays, grid)
    total = 0.0
    for k in range(N):
        hists, x = all_hists[k], all_states[k]
        xbar = brute_ce(hists, x, atom_probs, k)
        for i, (a, h) in enumerate(hists):
            cum0 = s * sum(p0 for p0, _ in h)
            Q = c.Q.at_w0(k, [cum0])[0]
            S = c.S.at_w0(k, [cum0])[0]
            R = c.R.at_w0(k, [cum0])[0]
            zeta = c.zeta.at_w0(k, [cum0])[0]
            varpi = c.varpi.at_w0(k, [cum0])[0]
            e = x[i] - c.H @ xbar[i]
            u = u_arrays[k][i]
            p = atom_probs[a] * 0.25**k
            total += (
                p
                * dt
                * (
                    e @ Q @ e
                    + 2.0 * e @ S @ u
                    + u @ R @ u
                    + 2.0 * zeta @ e
                    + 2.0 * varpi @ u
                )
            )
    hists, x = all_hists[N], all_states[N]
    xbar = brute_ce(hists, x, atom_probs, N)
    for i, (a, h) in enumerate(hists):
        e = x[i] - c.H @ xbar[i]
        p = atom_probs[a] * 0.25**N
        total += p * (e @ c.QT @ e)
    return 0.5 * total


def brute_cost_bar(cb, xi_bar, v_prefix_arrays, grid):
    """Bar problem cost on the pure common-noise tree (2**k prefixes)."""
    N = grid.n_steps
    dt = grid.dt
    s = grid.sqrt_dt
    prefixes = [()]
    y = [np.array(xi_bar, dtype=float)]
    total = 0.0
    for k in range(N):
        new_prefixes, new_y = [], []
        for i, h in enumerate(prefixes):
            cum0 = s * sum(h)
            Ab = cb.A.at_w0(k, [cum0])[0]
            B = cb.B.at_w0(k, [cum0])[0]
            bb = cb.b.at_w0(k, [cum0])[0]
            D0v = cb.D0.at_w0(k, [cum0])[0]
            Qb = cb.Q.at_w0(k, [cum0])[0]
            Sb = cb.S.at_w0(k, [cum0])[0]
            R = cb.R.at_w0(k, [cum0])[0]
            zb = cb.zeta.at_w0(k, [cum0])[0]
            varpi = cb.varpi.at_w0(k, [cum0])[0]
            vi = v_prefix_arrays[k][i]
            p = 0.5**k
            total += (
                p
                * dt
                * (
                    y[i] @ Qb @ y[i]
                    + 2.0 * y[i] @ Sb @ vi
                    + vi @ R @ vi
                    + 2.0 * zb @ y[i]
                    + 2.0 * varpi @ vi
                )
            )
            base = y[i] + dt * (Ab @ y[i] + B @ vi + bb)
            for p0 in (1, -1):
                new_prefixes.append(h + (p0,))
                new_y.append(base + D0v * (p0 * s))
        prefixes, y = new_prefixes, new_y
    for i, h in enumerate(prefixes):
        total += 0.5**N * (y[i] @ cb.QT @ y[i])
    return 0.5 * total
