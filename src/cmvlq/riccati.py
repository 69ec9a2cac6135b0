"""Backward dynamic programming for the two decomposed problems.

The value of each sub-problem is quadratic-plus-affine in the state,
V(x) = x'Px/2 + g'x + c (the cost has the 1/2 in front), and one
backward sweep on a plain coefficient set gives all of it: the
quadratic part P (``values``), the linear part g (``offset``), the
additive constant c (``constant``) and, on the tree, the feedback
u = -gain_state x - gain_const.  ``solve_pi`` runs the sweep on
``coeffs.breve_as_plain``, where the linear parts come out as exact
zeros and the constant is the idiosyncratic-noise term; ``solve_l``
runs it on ``coeffs.bar_transform``, where the common noise and the
affine terms enter the linear part and the constant.

Two backends.  The tree backend runs exact dynamic programming on the
common-noise prefix tree: the feedback it produces is exactly optimal
for the discretized cost, not merely up to a discretization error, so
downstream certification can use tight tolerances.  The ODE backend
integrates the continuous backward equations (matrix Riccati, linear,
constant) with classical Runge-Kutta on a fine grid; it requires
coefficients without a common-noise loading and is the route for Monte
Carlo work where the tree would be unaffordable.  ``_interp_table``
reads its tables, and any other fine-grid table, between grid times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, bar_transform, breve_as_plain
from .errors import FiniteEscapeError, NotDeterministicError, SingularSystemError
from .lattice import TimeGrid, w0_prefix_cums

# the coefficients a backward sweep reads
_FIELDS = ("A", "B", "S", "Q", "R", "b", "D", "D0", "zeta", "varpi")


@dataclass(frozen=True)
class TreeBackwardQuadratic:
    """Value function per common-noise prefix, per step.

    values[k] (2**k, n, n), offset[k] (2**k, n) and constant[k] (2**k,)
    are its quadratic, linear and constant parts; gain_state[k]
    (2**k, d, n) and gain_const[k] (2**k, d) the feedback for step
    k < n_steps.
    """

    grid: TimeGrid
    values: list
    gain_state: list
    offset: list
    gain_const: list
    constant: list

    @property
    def n(self) -> int:
        return self.values[0].shape[1]


@dataclass(frozen=True)
class OdeBackwardQuadratic:
    """Fine-grid solution of the continuous backward equations.

    values (n_fine + 1, n, n), offset (n_fine + 1, n) and constant
    (n_fine + 1,) are the value's quadratic, linear and constant parts
    at the ascending times.
    """

    grid: TimeGrid
    times: np.ndarray
    values: np.ndarray
    offset: np.ndarray
    constant: np.ndarray
    n_sub: int            # fine steps per coarse step

    def at_time(self, t: float) -> np.ndarray:
        return _interp_table(self.times, self.values, np.array([float(t)]))[0]

    def at_coarse(self, k: int) -> np.ndarray:
        return self.values[k * self.n_sub]


def _interp_table(src_times: np.ndarray, src_values: np.ndarray, at: np.ndarray):
    """Linear interpolation of a table of arrays along the time axis.

    Times outside the table take its first or last entry.
    """
    pos = np.clip(np.searchsorted(src_times, at, side="right") - 1, 0, len(src_times) - 2)
    t0 = src_times[pos]
    t1 = src_times[pos + 1]
    w = np.where(t1 > t0, (at - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0).clip(0.0, 1.0)
    w = w.reshape((len(at),) + (1,) * (src_values.ndim - 1))
    return (1.0 - w) * src_values[pos] + w * src_values[pos + 1]


def _chol_guard(G: np.ndarray, message: str):
    """Refuse with message, never regularize, a G that is not positive definite."""
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(message) from exc


def _fields(c: CoefficientSet) -> tuple:
    return tuple(getattr(c, name) for name in _FIELDS)


def _solve(p: CoefficientSet, backend: str, dt_target, drift: str):
    """The value function of a plain problem; ``drift`` names p.A in error messages."""
    if backend == "ode":
        _require_deterministic(p, drift)
        return _ode_sweep(p, dt_target)
    if backend != "tree":
        raise ValueError(f"unknown backend {backend!r}")
    return _tree_sweep(p)


def solve_pi(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Value function of the centered problem.

    Uses the original running weights and the idiosyncratic noise
    loading; the linear parts are zero and the additive constant is the
    noise-induced part of the optimal centered cost.
    """
    return _solve(breve_as_plain(c), backend, dt_target, "A")


def solve_l(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Value function of the conditional-mean problem.

    c is the full set or its ``bar_transform``; either gives the same
    problem.  It carries no idiosyncratic noise; the common noise and the
    affine terms b, zeta and varpi enter the linear part and the constant.
    """
    return _solve(bar_transform(c), backend, dt_target, "A+F")


def _tree_sweep(p: CoefficientSet) -> TreeBackwardQuadratic:
    """Exact backward dynamic programming on the common-noise prefixes.

    Prefix p at step k has the children 2p and 2p+1, reached by the
    common-noise increments +sqrt(dt) and -sqrt(dt); ``hat`` is the mean
    over the two and ``cov`` the covariance with the increment.
    """
    grid = p.grid()
    N, dt, sq = grid.n_steps, grid.dt, grid.sqrt_dt
    n = p.n
    cums = w0_prefix_cums(grid)
    fields = _fields(p)
    values = [None] * N + [np.broadcast_to(p.QT, (2**N, n, n)).copy()]
    offset = [None] * N + [np.zeros((2**N, n))]
    const = [None] * N + [np.zeros(2**N)]
    gains = [None] * N
    shifts = [None] * N
    for k in reversed(range(N)):
        A, B, S, Q, R, b, D, D0, zeta, varpi = (co.at_w0(k, cums[k]) for co in fields)
        nxt, gnxt, cnxt = values[k + 1], offset[k + 1], const[k + 1]
        hat = 0.5 * (nxt[0::2] + nxt[1::2])
        cov = 0.5 * sq * (nxt[0::2] - nxt[1::2])
        ghat = 0.5 * (gnxt[0::2] + gnxt[1::2])
        covg = 0.5 * sq * (gnxt[0::2] - gnxt[1::2])
        chat = 0.5 * (cnxt[0::2] + cnxt[1::2])

        Abar = np.eye(n) + dt * A
        Bbar = dt * B
        hatB = hat @ Bbar
        G = dt * R + np.transpose(Bbar, (0, 2, 1)) @ hatB
        G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
        M = np.transpose(Abar, (0, 2, 1)) @ hatB + dt * S
        _chol_guard(G, "one-step control matrix dt R + Bbar' E[P] Bbar is not positive definite "
                       f"at step {k}, so the cost is not convex in the control there; "
                       "refusing to regularize")
        gains[k] = np.linalg.solve(G, np.transpose(M, (0, 2, 1)))
        quad = np.transpose(Abar, (0, 2, 1)) @ (hat @ Abar) + dt * Q - M @ gains[k]
        values[k] = 0.5 * (quad + np.transpose(quad, (0, 2, 1)))

        bdt = dt * b
        covD0 = np.einsum("pij,pj->pi", cov, D0)
        h = np.einsum("pij,pj->pi", hat, bdt) + covD0 + ghat
        m = dt * varpi + np.einsum("pji,pj->pi", Bbar, h)
        shifts[k] = np.linalg.solve(G, m[..., None])[..., 0]
        offset[k] = (
            np.einsum("pji,pj->pi", Abar, h)
            + dt * zeta
            - np.einsum("pij,pj->pi", M, shifts[k])
        )
        const[k] = (
            chat
            + 0.5 * dt * np.einsum("pi,pij,pj->p", D, hat, D)
            + 0.5 * np.einsum("pi,pij,pj->p", bdt, hat, bdt)
            + np.einsum("pi,pi->p", bdt, covD0 + ghat)
            + 0.5 * dt * np.einsum("pi,pij,pj->p", D0, hat, D0)
            + np.einsum("pi,pi->p", covg, D0)
            - 0.5 * np.einsum("pi,pi->p", m, shifts[k])
        )
    return TreeBackwardQuadratic(
        grid=grid, values=values, gain_state=gains, offset=offset, gain_const=shifts,
        constant=const,
    )


# -- ODE backend ------------------------------------------------------------


def _require_deterministic(c: CoefficientSet, drift: str):
    """Refuse node-dependent coefficients; ``drift`` names c.A in the message."""
    bad = sorted(
        drift if name == "A" else name for name in _FIELDS if not getattr(c, name).deterministic
    )
    if bad:
        raise NotDeterministicError(
            "ODE backend requires coefficients without a common-noise "
            f"loading; these carry one: {', '.join(bad)}"
        )


def _fine_steps(grid: TimeGrid, dt_target: float | None) -> int:
    """Fine steps per coarse step; the default target is a thousandth of the horizon."""
    if dt_target is None:
        dt_target = 1e-3 * grid.horizon
    if not dt_target > 0.0:
        raise ValueError("dt_target must be positive")
    return max(1, math.ceil(grid.dt / dt_target))


def _ode_sweep(p: CoefficientSet, dt_target) -> OdeBackwardQuadratic:
    """RK4 sweep of the Riccati, linear and constant equations; p is deterministic."""
    grid = p.grid()
    n_sub = _fine_steps(grid, dt_target)
    N = grid.n_steps
    h = grid.dt / n_sub
    n_fine = N * n_sub
    times = np.linspace(0.0, grid.horizon, n_fine + 1)
    values = np.empty((n_fine + 1, p.n, p.n))
    offset = np.empty((n_fine + 1, p.n))
    const = np.empty(n_fine + 1)
    P = np.array(p.QT, dtype=float)
    g = np.zeros(p.n)
    cv = 0.0
    values[-1], offset[-1], const[-1] = P, g, cv
    idx = n_fine
    fields = _fields(p)
    # zero terms are skipped: without b, zeta and varpi the linear part
    # stays zero, as it does for Pi, and only nonzero loadings add noise
    affine = not all(all(getattr(p, name).zero_at) for name in ("b", "zeta", "varpi"))
    zero_offset = np.zeros(p.n)
    # an escaping solution overflows; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in reversed(range(N)):
            A, B, S, Q, R, b, D, D0, zeta, varpi = (co.at_step(k) for co in fields)
            _chol_guard(R, f"control weight R is singular at step {k}; refusing to regularize "
                           "-- the control weight must be positive definite on every node")
            loads = [v for v in (D0, D) if v.any()]

            def rhs(P, g):
                W = P @ B + S
                dP = -(A.T @ P + P @ A + Q - W @ np.linalg.solve(R, W.T))
                noise = sum(0.5 * v @ P @ v for v in loads)
                if not affine:
                    return dP, zero_offset, -noise
                wv = B.T @ g + varpi
                r = np.linalg.solve(R, wv)
                return dP, -(A.T @ g + P @ b + zeta - W @ r), -(b @ g + noise - 0.5 * wv @ r)

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
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        # integration runs backward, so the first failure is the latest time
        t_bad = times[np.flatnonzero(~finite)[-1]]
        raise FiniteEscapeError(
            f"Riccati solution blew up (finite escape): first non-finite value "
            f"at t={t_bad:.6g} integrating backward from T={grid.horizon:.6g}"
        )
    return OdeBackwardQuadratic(
        grid=grid, times=times, values=values, offset=offset, constant=const, n_sub=n_sub
    )
