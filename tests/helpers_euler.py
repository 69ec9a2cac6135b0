"""Reference for the Monte Carlo kernel: a plain per-step Euler loop.

``reference_forward`` integrates the closed loop of ``simulate_forward``
one fine step at a time, with the control, running cost and drift
written out term by term exactly as the model states them.  It
rebuilds every draw with ``path_draws``: path i's draws are column
i % RNG_BLOCK of the step-major array that one call on the block
generator ``sim.substream(seed, i // RNG_BLOCK, noise)`` returns.  So it
shares neither the kernel's closed-loop tables nor the batched block
copies of ``sim._draw_steps``.
"""

import numpy as np

from cmvlq.sim import NOISE_COMMON, NOISE_IDIO, NOISE_INIT, RNG_BLOCK, substream


def path_draws(seed, index, count, noise, uniform=False):
    """The count draws of one path, rebuilt from its block's generator.

    Signs come from the block's bits in stream order, read as bytes in
    one call: bit b of byte i (least significant first) is entry 8 i + b
    of the row-major (count, RNG_BLOCK) array, 1 meaning +1.
    """
    gen = substream(seed, index // RNG_BLOCK, noise)
    size = (count, RNG_BLOCK)
    if uniform:
        block = gen.random(size)
    else:
        raw = np.frombuffer(gen.bytes(count * RNG_BLOCK // 8), dtype=np.uint8)
        bits = (raw[:, None] >> np.arange(8)) & 1
        block = np.where(bits.reshape(size) == 1, 1.0, -1.0)
    return block[:, index % RNG_BLOCK]


def _interp_table(src_times, src_values, at):
    pos = np.clip(np.searchsorted(src_times, at, side="right") - 1, 0, len(src_times) - 2)
    t0 = src_times[pos]
    t1 = src_times[pos + 1]
    w = np.where(t1 > t0, (at - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
    w = w.reshape((len(at),) + (1,) * (src_values.ndim - 1))
    return (1.0 - w) * src_values[pos] + w * src_values[pos + 1]


def _coeff_tables(c, n_sub, n_fine):
    idx = [min(j // n_sub, c.n_steps - 1) for j in range(n_fine)]
    names = ("A", "F", "B", "S", "b", "D", "D0", "zeta", "varpi", "Q", "R")
    return {name: np.stack([getattr(c, name).at_step(k) for k in idx]) for name in names}


def reference_forward(policy, c, grid, n_paths, seed, *, xi, atom_probs, n_common, dt_target):
    """Per-path costs, per-stream sums of the checkpoint deviations and their squares, increments."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    atom_probs = np.asarray(atom_probs, dtype=float)
    n_sub = max(1, int(np.ceil(grid.dt / dt_target)))
    n_fine = grid.n_steps * n_sub
    dt = grid.horizon / n_fine
    times = np.linspace(0.0, grid.horizon, n_fine + 1)
    tabs = _coeff_tables(c, n_sub, n_fine)
    left = times[:n_fine]
    Kc = _interp_table(policy.times, policy.gain_centered, left)
    Km = _interp_table(policy.times, policy.gain_mean, left)
    shift = _interp_table(policy.times, policy.shift, left)
    sq = np.sqrt(dt)
    checkpoint_indices = np.arange(0, n_fine + 1, n_sub)
    n_cp = len(checkpoint_indices)
    cp_of = {int(j): i for i, j in enumerate(checkpoint_indices)}

    dw0 = np.stack([path_draws(seed, g, n_fine, NOISE_COMMON) for g in range(n_common)]) * sq
    xbar_path = np.empty((n_fine + 1, n_common, c.n))
    xbar_path[0] = (atom_probs @ xi)[None, :]
    for j in range(n_fine):
        xb = xbar_path[j]
        ub = -xb @ Km[j].T - shift[j]
        drift = xb @ (tabs["A"][j] + tabs["F"][j]).T + ub @ tabs["B"][j].T + tabs["b"][j]
        xbar_path[j + 1] = xb + dt * drift + np.outer(dw0[:, j], tabs["D0"][j])

    cum = np.cumsum(atom_probs)
    u01 = np.array([path_draws(seed, i, 1, NOISE_INIT, uniform=True)[0] for i in range(n_paths)])
    atoms = np.minimum(np.searchsorted(cum, u01, side="right"), len(atom_probs) - 1)
    dw = np.stack([path_draws(seed, i, n_fine, NOISE_IDIO) for i in range(n_paths)]) * sq

    # the particle loop, one fine step at a time
    gidx = np.arange(n_paths) % n_common
    x = xi[atoms]
    run = np.zeros(n_paths)
    dev_sum = np.zeros((n_common, n_cp, c.n))
    dev_sq = np.zeros((n_common, n_cp, c.n))
    for j in range(n_fine + 1):
        xb = xbar_path[j][gidx]
        if j in cp_of:
            i = cp_of[j]
            dev = x - xb
            np.add.at(dev_sum, (gidx, i), dev)
            np.add.at(dev_sq, (gidx, i), dev * dev)
        if j == n_fine:
            e = x - xb @ c.H.T
            run += 0.5 * np.einsum("bi,ij,bj->b", e, c.QT, e)
            break
        u = -(x - xb) @ Kc[j].T - xb @ Km[j].T - shift[j]
        e = x - xb @ c.H.T
        run += dt * 0.5 * (
            np.einsum("bi,ij,bj->b", e, tabs["Q"][j], e)
            + 2.0 * np.einsum("bi,ij,bj->b", e, tabs["S"][j], u)
            + np.einsum("bi,ij,bj->b", u, tabs["R"][j], u)
            + 2.0 * e @ tabs["zeta"][j]
            + 2.0 * u @ tabs["varpi"][j]
        )
        drift = x @ tabs["A"][j].T + u @ tabs["B"][j].T + xb @ tabs["F"][j].T + tabs["b"][j]
        x = (
            x
            + dt * drift
            + np.outer(dw[:, j], tabs["D"][j])
            + np.outer(dw0[gidx, j], tabs["D0"][j])
        )
    return dict(costs=run, dev_sum=dev_sum, dev_sq=dev_sq, dw=dw)
