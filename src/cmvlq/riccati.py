"""Backward quadratic solves for the two decomposed problems.

Two backends.  The tree backend runs exact dynamic programming on the
common-noise prefix tree: the feedback it produces is exactly optimal
for the discretized cost, not merely up to a discretization error, so
downstream certification can use tight tolerances.  The ODE backend
integrates the continuous matrix Riccati equations with classical
Runge-Kutta on a fine grid; it requires coefficients without a
common-noise loading and is the route for Monte Carlo work where the
tree would be unaffordable.  Pi and L come from one routine on a plain
coefficient set: the full set for Pi, ``coeffs.bar_as_plain`` for L.

Value-function conventions (cost has the 1/2 in front): quadratic part
V(x) = x'Px/2 + g'x + c.  Feedback is u = -gain_state x - gain_const.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import BarCoefficients, CoefficientSet, bar_as_plain
from .errors import FiniteEscapeError, NotDeterministicError, SingularSystemError
from .lattice import TimeGrid, w0_prefix_cums

OFFSET_CONSISTENCY_TOL = 1e-9
# the coefficients each backward solve reads
_QUAD_FIELDS = ("A", "B", "S", "Q", "R")
_OFFSET_FIELDS = _QUAD_FIELDS + ("b", "D0", "zeta", "varpi")


@dataclass(frozen=True)
class TreeBackwardQuadratic:
    """Quadratic value coefficient per common-noise prefix, per step.

    values[k] has shape (2**k, n, n); gain_state[k] (2**k, d, n) holds
    the state-feedback gain for step k < n_steps.  constant[k] (2**k,)
    carries the additive value term induced by the idiosyncratic noise.
    """

    grid: TimeGrid
    values: list
    gain_state: list
    constant: list

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


def _fields(c: CoefficientSet, names) -> tuple:
    return tuple(getattr(c, name) for name in names)


def _quadratic(c: CoefficientSet, backend: str, dt_target, drift: str):
    """Backward quadratic coefficient of a plain problem's value.

    The tree backend also accumulates the additive constant induced by
    the idiosyncratic noise D.  ``drift`` names c.A in error messages.
    """
    grid = c.grid()
    fields = _fields(c, _QUAD_FIELDS)
    if backend == "ode":
        _require_deterministic(c, _QUAD_FIELDS, drift)
        return _ode_quadratic(fields, c.QT, grid, dt_target)
    if backend != "tree":
        raise ValueError(f"unknown backend {backend!r}")
    N = grid.n_steps
    cums = w0_prefix_cums(grid)
    values = [None] * N + [np.broadcast_to(c.QT, (2**N, c.n, c.n)).copy()]
    consts = [None] * N + [np.zeros(2**N)]
    gains = [None] * N
    for k in reversed(range(N)):
        A, B, S, Q, R = (co.at_w0(k, cums[k]) for co in fields)
        hat, _, _, gains[k], values[k] = _dp_step(values[k + 1], A, B, S, Q, R, grid.dt, k)
        chat = 0.5 * (consts[k + 1][0::2] + consts[k + 1][1::2])
        Dn = c.D.at_w0(k, cums[k])
        consts[k] = chat + 0.5 * grid.dt * np.einsum("pi,pij,pj->p", Dn, hat, Dn)
    return TreeBackwardQuadratic(grid=grid, values=values, gain_state=gains, constant=consts)


def solve_pi(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Backward quadratic coefficient of the centered-problem value.

    Uses the original running weights and the idiosyncratic noise
    loading; the additive constant it accumulates is the noise-induced
    part of the optimal centered cost.
    """
    return _quadratic(c, backend, dt_target, "A")


def solve_l(cb: BarCoefficients, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Backward quadratic coefficient of the conditional-mean value.

    The problem carries no idiosyncratic noise, so the tree constant is
    zero; the common-noise terms enter through ``solve_offset``.
    """
    return _quadratic(bar_as_plain(cb), backend, dt_target, "A+F")


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
    p = bar_as_plain(cb)
    if backend == "tree":
        if not isinstance(l_solution, TreeBackwardQuadratic):
            raise ValueError("tree backend requires a tree quadratic solution")
        return _tree_offset(p, l_solution)
    if backend == "ode":
        if not isinstance(l_solution, OdeBackwardQuadratic):
            raise ValueError("ode backend requires an ode quadratic solution")
        _require_deterministic(p, _OFFSET_FIELDS, "A+F")
        return _ode_offset(p, l_solution)
    raise ValueError(f"unknown backend {backend!r}")


def _tree_offset(p: CoefficientSet, l_sol: TreeBackwardQuadratic) -> TreeOffset:
    grid = p.grid()
    N = grid.n_steps
    dt = grid.dt
    sq = grid.sqrt_dt
    cums = w0_prefix_cums(grid)
    n = p.n
    fields = _fields(p, _OFFSET_FIELDS)
    offset = [None] * (N + 1)
    gain_c = [None] * N
    const = [None] * (N + 1)
    offset[N] = np.zeros((2**N, n))
    const[N] = np.zeros(2**N)
    for k in reversed(range(N)):
        Ab, B, Sb, Qb, R, b, D0, zb, varpi = (co.at_w0(k, cums[k]) for co in fields)
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


def _require_deterministic(c: CoefficientSet, names, drift: str):
    """Refuse node-dependent coefficients; ``drift`` names c.A in the message."""
    bad = sorted(
        drift if name == "A" else name for name in names if not getattr(c, name).deterministic
    )
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


def _ode_offset(p: CoefficientSet, l_sol: OdeBackwardQuadratic) -> OdeOffset:
    grid = p.grid()
    fields = _fields(p, _OFFSET_FIELDS)
    n_sub = l_sol.n_sub
    N = grid.n_steps
    h = grid.dt / n_sub
    n = p.n
    times = l_sol.times
    Ls = np.empty_like(l_sol.values)
    ls = np.empty((N * n_sub + 1, n))
    cs = np.empty(N * n_sub + 1)
    L = np.array(p.QT, dtype=float)
    lv = np.zeros(n)
    cv = 0.0
    Ls[-1], ls[-1], cs[-1] = L, lv, cv
    idx = N * n_sub

    def rhs(L, lv, k):
        A, B, S, Q, R, b, D0, zb, varpi = (co.at_step(k) for co in fields)
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
