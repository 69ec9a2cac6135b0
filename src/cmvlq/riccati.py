"""Backward quadratic solves for the two decomposed problems.

Two backends.  The tree backend runs exact dynamic programming on the
common-noise prefix tree: the feedback it produces is exactly optimal
for the discretized cost, not merely up to a discretization error, so
downstream certification can use tight tolerances.  The ODE backend
integrates the continuous matrix Riccati equations with classical
Runge-Kutta on a fine grid; it requires coefficients without a
common-noise loading and is the route for Monte Carlo work where the
tree would be unaffordable.

Value-function conventions (cost has the 1/2 in front): quadratic part
V(x) = x'Px/2 + g'x + c.  Feedback is u = -gain_state x - gain_const.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import BarCoefficients, CoefficientSet
from .errors import FiniteEscapeError, NotDeterministicError, SingularSystemError
from .lattice import TimeGrid, w0_prefix_cums

OFFSET_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class TreeBackwardQuadratic:
    """Quadratic value coefficient per common-noise prefix, per step.

    values[k] has shape (2**k, n, n); gain_state[k] (2**k, d, n) holds
    the state-feedback gain for step k < n_steps.  constant[k], when
    present, carries the noise-induced additive value term.
    """

    grid: TimeGrid
    values: list
    gain_state: list
    constant: list | None = None

    @property
    def n(self) -> int:
        return self.values[0].shape[1]

    def node_values(self, tree, k: int) -> np.ndarray:
        return tree.expand_f0(k, self.values[k])

    def node_gain(self, tree, k: int) -> np.ndarray:
        return tree.expand_f0(k, self.gain_state[k])


@dataclass(frozen=True)
class TreeOffset:
    """Affine value parts per prefix: linear term, control shift, constant."""

    grid: TimeGrid
    offset: list          # k -> (2**k, n)
    gain_const: list      # k -> (2**k, d)
    constant: list        # k -> (2**k,)


@dataclass(frozen=True)
class OdeBackwardQuadratic:
    """Fine-grid solution of a continuous backward matrix equation."""

    grid: TimeGrid
    times: np.ndarray     # (n_fine + 1,), ascending
    values: np.ndarray    # (n_fine + 1, n, n)
    n_sub: int            # fine steps per coarse step

    def at_time(self, t: float) -> np.ndarray:
        return _interp_time(self.times, self.values, t)

    def at_coarse(self, k: int) -> np.ndarray:
        return self.values[k * self.n_sub]


@dataclass(frozen=True)
class OdeOffset:
    grid: TimeGrid
    times: np.ndarray
    offset: np.ndarray    # (n_fine + 1, n)
    constant: np.ndarray  # (n_fine + 1,)
    n_sub: int

    def at_time(self, t: float) -> np.ndarray:
        return _interp_time(self.times, self.offset, t)

    def at_coarse(self, k: int) -> np.ndarray:
        return self.offset[k * self.n_sub]


def _interp_time(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    h = times[1] - times[0]
    pos = (float(t) - times[0]) / h
    j = int(math.floor(pos))
    j = min(max(j, 0), len(times) - 2)
    frac = min(max(pos - j, 0.0), 1.0)
    return (1.0 - frac) * values[j] + frac * values[j + 1]


def _chol_guard(G: np.ndarray, step: int, what: str = "one-step control system matrix"):
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"{what} is singular at step {step}; "
            "refusing to regularize -- the control weight must be positive "
            "definite on every node"
        ) from exc


def _dp_step(nxt, A, B, S, Q, R, dt: float, step: int):
    """One exact backward step; returns (child mean, G, M, gain, new value)."""
    hat = 0.5 * (nxt[0::2] + nxt[1::2])
    n = A.shape[1]
    Abar = np.eye(n) + dt * A
    Bbar = dt * B
    hatB = hat @ Bbar
    G = dt * R + np.transpose(Bbar, (0, 2, 1)) @ hatB
    G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
    M = np.transpose(Abar, (0, 2, 1)) @ hatB + dt * S
    _chol_guard(G, step)
    gain = np.linalg.solve(G, np.transpose(M, (0, 2, 1)))
    quad = np.transpose(Abar, (0, 2, 1)) @ (hat @ Abar) + dt * Q - M @ gain
    quad = 0.5 * (quad + np.transpose(quad, (0, 2, 1)))
    return hat, G, M, gain, quad


def _tree_quadratic(eval_step, terminal, noise=None, *, grid: TimeGrid):
    """Shared backward loop; eval_step(k) yields (A, B, S, Q, R[, Dn])."""
    N = grid.n_steps
    dt = grid.dt
    n = terminal.shape[0]
    values = [None] * (N + 1)
    gains = [None] * N
    consts = None if noise is None else [None] * (N + 1)
    values[N] = np.broadcast_to(terminal, (2**N, n, n)).copy()
    if consts is not None:
        consts[N] = np.zeros(2**N)
    for k in reversed(range(N)):
        A, B, S, Q, R = eval_step(k)
        hat, _, _, gain, quad = _dp_step(values[k + 1], A, B, S, Q, R, dt, k)
        values[k] = quad
        gains[k] = gain
        if consts is not None:
            chat = 0.5 * (consts[k + 1][0::2] + consts[k + 1][1::2])
            Dn = noise(k)
            consts[k] = chat + 0.5 * dt * np.einsum("pi,pij,pj->p", Dn, hat, Dn)
    return TreeBackwardQuadratic(grid=grid, values=values, gain_state=gains, constant=consts)


def solve_pi(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Backward quadratic coefficient of the centered-problem value.

    Uses the original running weights and the idiosyncratic noise
    loading; the additive constant it accumulates is the noise-induced
    part of the optimal centered cost.
    """
    grid = c.grid()
    if backend == "tree":
        cums = w0_prefix_cums(grid)
        fields = (c.A, c.B, c.S, c.Q, c.R)
        return _tree_quadratic(
            lambda k: tuple(co.at_w0(k, cums[k]) for co in fields),
            c.QT,
            noise=lambda k: c.D.at_w0(k, cums[k]),
            grid=grid,
        )
    if backend == "ode":
        _require_deterministic({"A": c.A, "B": c.B, "S": c.S, "Q": c.Q, "R": c.R})
        return _ode_quadratic((c.A, c.B, c.S, c.Q, c.R), c.QT, grid, dt_target)
    raise ValueError(f"unknown backend {backend!r}")


def solve_l(cb: BarCoefficients, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Backward quadratic coefficient of the conditional-mean value."""
    grid = cb.grid()
    if backend == "tree":
        cums = w0_prefix_cums(grid)
        fields = (cb.Abar, cb.B, cb.Sbar, cb.Qbar, cb.R)
        return _tree_quadratic(
            lambda k: tuple(co.at_w0(k, cums[k]) for co in fields), cb.QbarT, grid=grid
        )
    if backend == "ode":
        _require_deterministic(
            {"A+F": cb.Abar, "B": cb.B, "S": cb.Sbar, "Q": cb.Qbar, "R": cb.R}
        )
        return _ode_quadratic((cb.Abar, cb.B, cb.Sbar, cb.Qbar, cb.R), cb.QbarT, grid, dt_target)
    raise ValueError(f"unknown backend {backend!r}")


def solve_offset(
    cb: BarCoefficients,
    l_solution,
    backend: str = "tree",
    *,
    dt_target: float | None = None,
) -> TreeOffset | OdeOffset:
    """Affine value parts of the conditional-mean problem.

    Needs the quadratic solution; on the tree backend the per-step system
    matrices are recomputed from the coefficients and the passed solution
    is cross-checked against its own recursion, so a mismatched pairing
    fails loudly instead of silently producing a wrong offset.
    """
    grid = cb.grid()
    if backend == "tree":
        if not isinstance(l_solution, TreeBackwardQuadratic):
            raise ValueError("tree backend requires a tree quadratic solution")
        return _tree_offset(cb, l_solution, grid)
    if backend == "ode":
        if not isinstance(l_solution, OdeBackwardQuadratic):
            raise ValueError("ode backend requires an ode quadratic solution")
        _require_deterministic(
            {
                "A+F": cb.Abar,
                "B": cb.B,
                "S": cb.Sbar,
                "Q": cb.Qbar,
                "R": cb.R,
                "b": cb.b,
                "D0": cb.D0,
                "zeta": cb.zetabar,
                "varpi": cb.varpi,
            }
        )
        return _ode_offset(cb, l_solution, grid)
    raise ValueError(f"unknown backend {backend!r}")


def _tree_offset(cb: BarCoefficients, l_sol: TreeBackwardQuadratic, grid: TimeGrid) -> TreeOffset:
    N = grid.n_steps
    dt = grid.dt
    sq = grid.sqrt_dt
    cums = w0_prefix_cums(grid)
    n = cb.n
    offset = [None] * (N + 1)
    gain_c = [None] * N
    const = [None] * (N + 1)
    offset[N] = np.zeros((2**N, n))
    const[N] = np.zeros(2**N)
    for k in reversed(range(N)):
        Ab = cb.Abar.at_w0(k, cums[k])
        B = cb.B.at_w0(k, cums[k])
        Sb = cb.Sbar.at_w0(k, cums[k])
        Qb = cb.Qbar.at_w0(k, cums[k])
        R = cb.R.at_w0(k, cums[k])
        b = cb.b.at_w0(k, cums[k])
        D0 = cb.D0.at_w0(k, cums[k])
        zb = cb.zetabar.at_w0(k, cums[k])
        varpi = cb.varpi.at_w0(k, cums[k])

        nxt = l_sol.values[k + 1]
        hat, G, M, _, quad = _dp_step(nxt, Ab, B, Sb, Qb, R, dt, k)
        scale = 1.0 + float(np.max(np.abs(l_sol.values[k])))
        if float(np.max(np.abs(quad - l_sol.values[k]))) > OFFSET_CONSISTENCY_TOL * scale:
            raise ValueError(
                "quadratic solution does not match these coefficients; "
                "solve the offset with the solution produced for the same set"
            )
        cov = 0.5 * sq * (nxt[0::2] - nxt[1::2])
        gnxt = offset[k + 1]
        ghat = 0.5 * (gnxt[0::2] + gnxt[1::2])
        covg = 0.5 * sq * (gnxt[0::2] - gnxt[1::2])
        chat = 0.5 * (const[k + 1][0::2] + const[k + 1][1::2])

        Abar = np.eye(n) + dt * Ab
        Bbar = dt * B
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
            + 0.5 * np.einsum("pi,pij,pj->p", bdt, hat, bdt)
            + np.einsum("pi,pi->p", bdt, np.einsum("pij,pj->pi", cov, D0) + ghat)
            + 0.5 * dt * np.einsum("pi,pij,pj->p", D0, hat, D0)
            + np.einsum("pi,pi->p", covg, D0)
            - 0.5 * np.einsum("pi,pi->p", m, gc)
        )
    return TreeOffset(grid=grid, offset=offset, gain_const=gain_c, constant=const)


# -- ODE backend ------------------------------------------------------------


def _require_deterministic(named: dict):
    bad = sorted(name for name, co in named.items() if not co.deterministic)
    if bad:
        raise NotDeterministicError(
            "ODE backend requires coefficients without a common-noise "
            f"loading; these carry one: {', '.join(bad)}"
        )


def _fine_steps(grid: TimeGrid, dt_target: float | None) -> int:
    if dt_target is None:
        dt_target = 1e-3 * grid.horizon
    if not dt_target > 0.0:
        raise ValueError("dt_target must be positive")
    return max(1, math.ceil(grid.dt / dt_target))


def _quad_rhs(P, A, B, S, Q, R):
    W = P @ B + S
    return -(A.T @ P + P @ A + Q - W @ np.linalg.solve(R, W.T))


def _ode_quadratic(fields: tuple, terminal, grid: TimeGrid, dt_target) -> OdeBackwardQuadratic:
    """RK4 sweep of the Riccati equation; fields are deterministic (A, B, S, Q, R)."""
    n_sub = _fine_steps(grid, dt_target)
    N = grid.n_steps
    h = grid.dt / n_sub
    times = np.linspace(0.0, grid.horizon, N * n_sub + 1)
    values = np.empty((N * n_sub + 1, terminal.shape[0], terminal.shape[0]))
    P = np.array(terminal, dtype=float)
    values[-1] = P
    idx = N * n_sub
    # an escaping solution overflows; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in reversed(range(N)):
            A, B, S, Q, R = (co.at_step(k) for co in fields)
            _chol_guard(R, k, "control weight R")
            for _ in range(n_sub):
                k1 = _quad_rhs(P, A, B, S, Q, R)
                k2 = _quad_rhs(P - 0.5 * h * k1, A, B, S, Q, R)
                k3 = _quad_rhs(P - 0.5 * h * k2, A, B, S, Q, R)
                k4 = _quad_rhs(P - h * k3, A, B, S, Q, R)
                P = P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                P = 0.5 * (P + P.T)
                idx -= 1
                values[idx] = P
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        # integration runs backward, so the first failure is the latest time
        t_bad = times[np.flatnonzero(~finite)[-1]]
        raise FiniteEscapeError(
            f"Riccati solution blew up (finite escape): first non-finite value "
            f"at t={t_bad:.6g} integrating backward from T={grid.horizon:.6g}"
        )
    return OdeBackwardQuadratic(grid=grid, times=times, values=values, n_sub=n_sub)


def _ode_offset(cb: BarCoefficients, l_sol: OdeBackwardQuadratic, grid: TimeGrid) -> OdeOffset:
    n_sub = l_sol.n_sub
    N = grid.n_steps
    h = grid.dt / n_sub
    n = cb.n
    times = l_sol.times
    Ls = np.empty_like(l_sol.values)
    ls = np.empty((N * n_sub + 1, n))
    cs = np.empty(N * n_sub + 1)
    L = np.array(cb.QbarT, dtype=float)
    lv = np.zeros(n)
    cv = 0.0
    Ls[-1], ls[-1], cs[-1] = L, lv, cv
    idx = N * n_sub

    def rhs(L, lv, k):
        A, B, S, Q, R = (
            cb.Abar.at_step(k),
            cb.B.at_step(k),
            cb.Sbar.at_step(k),
            cb.Qbar.at_step(k),
            cb.R.at_step(k),
        )
        b = cb.b.at_step(k)
        D0 = cb.D0.at_step(k)
        zb = cb.zetabar.at_step(k)
        varpi = cb.varpi.at_step(k)
        W = L @ B + S
        wv = B.T @ lv + varpi
        Ld = -(A.T @ L + L @ A + Q - W @ np.linalg.solve(R, W.T))
        ld = -(A.T @ lv + L @ b + zb - W @ np.linalg.solve(R, wv))
        cd = -(b @ lv + 0.5 * D0 @ L @ D0 - 0.5 * wv @ np.linalg.solve(R, wv))
        return Ld, ld, cd

    for k in reversed(range(N)):
        for _ in range(n_sub):
            k1 = rhs(L, lv, k)
            k2 = rhs(L - 0.5 * h * k1[0], lv - 0.5 * h * k1[1], k)
            k3 = rhs(L - 0.5 * h * k2[0], lv - 0.5 * h * k2[1], k)
            k4 = rhs(L - h * k3[0], lv - h * k3[1], k)
            L = L - (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            L = 0.5 * (L + L.T)
            lv = lv - (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            cv = cv - (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            idx -= 1
            Ls[idx], ls[idx], cs[idx] = L, lv, cv
    scale = 1.0 + float(np.max(np.abs(l_sol.values)))
    if float(np.max(np.abs(Ls - l_sol.values))) > OFFSET_CONSISTENCY_TOL * scale:
        raise ValueError(
            "quadratic solution does not match these coefficients; "
            "solve the offset with the solution produced for the same set"
        )
    return OdeOffset(grid=grid, times=times, offset=ls, constant=cs, n_sub=n_sub)
