"""Backward dynamic programming for the two decomposed problems.

The value of each sub-problem is quadratic-plus-affine in the state,
V(x) = x'Px/2 + g'x + c (the cost has the 1/2 in front), which is
z'[[P, g], [g', 2c]]z/2 in the augmented state z = [x; 1].  In z the
affine problem is homogeneous (state augmentation; Anderson & Moore,
Optimal Control: Linear Quadratic Methods, 1990), so each backend runs
one Riccati recursion on (n+1)x(n+1) matrices, and the quadratic part P
(``values``), the linear part g (``offset``), the constant c
(``constant``) and, on the tree, the feedback u = -gain_state x -
gain_const are read off its results.  ``solve_pi`` runs it on
``coeffs.breve_as_plain``, where the linear parts come out as exact
zeros and the constant is the idiosyncratic-noise term; ``solve_l`` on
``coeffs.bar_transform``, where the common noise and the affine terms
enter the linear part and the constant.

Two backends.  The tree backend runs exact dynamic programming on the
common-noise lattice: the feedback it produces is exactly optimal for the
discretized cost, not merely up to a discretization error, so downstream
certification can use tight tolerances.  Its one recursion,
``_level_sweep``, runs on the W0 levels and is read per prefix through
each prefix's level.  The ODE backend integrates the continuous equation
with classical Runge-Kutta on a fine grid, one sweep, ``_ode_sweep``,
for a stack of plain sets (``fbsde.build_ode_policy`` sweeps Pi and L
together); it requires coefficients without a common-noise loading and
is the route for Monte Carlo work where the tree would be unaffordable.
``_interp_table`` reads its tables, and any other fine-grid table,
between grid times; ``_coeff_tables`` holds the coefficients per fine
step.

``convexity_margins`` runs the same recursion for a stack of shifts of R:
the largest shift at which every one-step control matrix stays positive
definite is the exact convexity margin of each sub-problem.  For a set
whose coefficients do not depend on W0, the sweep at shift lam is a
block LDL' elimination of K - lam dt I, K the Hessian of the homogeneous
cost over deterministic controls (the Riccati recursion as a block
factorization; Rao, Wright & Rawlings, JOTA 99, 1998).  By Sylvester's
law of inertia it passes exactly when K - lam dt I is positive definite,
so the margin is lam_min(K) / dt: one small eigenproblem predicts it and
one sweep at two shifts certifies it.  Node-dependent sets, and a
prediction that fails its certificate, bisect for it with sweeps over
many shifts.  A tree solve is the sweep at the single shift 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import _COEFF_FIELDS, CoefficientSet, bar_transform, breve_as_plain, homogeneous
from .errors import FiniteEscapeError, NotDeterministicError, SingularSystemError
from .lattice import TimeGrid, w0_levels, w0_prefix_levels

# the coefficients a backward sweep reads
_FIELDS = ("A", "B", "S", "Q", "R", "b", "D", "D0", "zeta", "varpi")
MARGIN_SHIFTS = 16    # shifts of R tried by one sweep of the margin search
MARGIN_REL = 1e-13    # relative bracket width at which the margin search stops


@dataclass(frozen=True)
class TreeBackwardQuadratic:
    """Value function per W0 level, read per common-noise prefix, per step.

    table[k] (2**k, n+1, n+1) is the augmented value [[P, g], [g', 2c]]
    at step k, read as values P, offset g and constant c, and
    feedback[k] (2**k, d, n+1) the control u = -feedback z for step
    k < n_steps, read as gain_state and gain_const: each prefix's rows
    of the ``_level_sweep`` tables level_table and level_feedback.
    """

    grid: TimeGrid
    level_table: list
    level_feedback: list

    table = property(lambda self: self._per_prefix(self.level_table))
    feedback = property(lambda self: self._per_prefix(self.level_feedback))
    values = property(lambda self: [t[:, :-1, :-1] for t in self.table])
    offset = property(lambda self: [t[:, :-1, -1] for t in self.table])
    constant = property(lambda self: [0.5 * t[:, -1, -1] for t in self.table])
    gain_state = property(lambda self: [f[..., :-1] for f in self.feedback])
    gain_const = property(lambda self: [f[..., -1] for f in self.feedback])

    def _per_prefix(self, tables: list) -> list:
        levels = w0_prefix_levels(self.grid.n_steps)
        return [t[np.minimum(level, len(t) - 1)] for t, level in zip(tables, levels)]


@dataclass(frozen=True)
class OdeBackwardQuadratic:
    """Fine-grid solution of the continuous backward equation.

    table (n_fine + 1, n+1, n+1) is the augmented value [[P, g], [g', 2c]]
    at the ascending times, read as values P, offset g and constant c.
    """

    grid: TimeGrid
    times: np.ndarray
    table: np.ndarray
    n_sub: int            # fine steps per coarse step

    values = property(lambda self: self.table[:, :-1, :-1])
    offset = property(lambda self: self.table[:, :-1, -1])
    constant = property(lambda self: 0.5 * self.table[:, -1, -1])

    def at_time(self, t: float) -> np.ndarray:
        return _interp_table(self.times, self.values, np.array([float(t)]))[0]


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


def _augmented(p: CoefficientSet, k: int, w0=None) -> tuple:
    """Step k's (A, B, S, Q, R, D, D0) in z = [x; 1], per node of w0 if given.

    In z the drift is [[A, b], [0, 0]], the weights [[Q, zeta], [zeta',
    0]] and [S; varpi'], and the loadings [B; 0], [D; 0] and [D0; 0]; the
    noises multiply the constant coordinate.  Without w0 p is deterministic.
    """
    A, B, S, Q, R, b, D, D0, zeta, varpi = (
        co.at_step(k) if w0 is None else co.at_w0(k, w0) for co in (getattr(p, f) for f in _FIELDS)
    )
    n, lead = p.n, A.shape[:-2]
    Az, Qz = np.zeros(lead + (n + 1, n + 1)), np.zeros(lead + (n + 1, n + 1))
    Bz, Sz = np.zeros(lead + (n + 1, p.d)), np.zeros(lead + (n + 1, p.d))
    Dz, D0z = np.zeros(lead + (n + 1,)), np.zeros(lead + (n + 1,))
    Az[..., :n, :n], Az[..., :n, n] = A, b
    Qz[..., :n, :n], Qz[..., :n, n], Qz[..., n, :n] = Q, zeta, zeta
    Bz[..., :n, :], Sz[..., :n, :], Sz[..., n, :] = B, S, varpi
    Dz[..., :n], D0z[..., :n] = D, D0
    return Az, Bz, Sz, Qz, R, Dz, D0z


def _solve(p: CoefficientSet, backend: str, dt_target, drift: str, problem: str):
    """The value function of a plain problem; ``drift`` names p.A and ``problem`` p in error messages.

    A tree sweep that refuses a cost that is not convex quotes p's exact
    convexity margin, then at most 0, over all of p's controls.
    """
    if backend == "ode":
        return _ode_sweep([(p, drift)], dt_target)[0]
    if backend != "tree":
        raise ValueError(f"unknown backend {backend!r}")
    grid = p.grid()
    table, feedback = _level_sweep(grid, _level_coefficients(p), np.pad(p.QT, (0, 1)), np.zeros(1))
    failed = [k for k in range(grid.n_steps) if not len(table[k])]
    if failed:
        raise SingularSystemError(
            "one-step control matrix dt R + Bbar' E[P] Bbar is not positive definite "
            f"at step {failed[-1]}, so the cost is not convex in the control there; "
            "refusing to regularize; the exact convexity margin of the "
            f"{problem} problem is {_margin(homogeneous(p)):.12g}"
        )
    return TreeBackwardQuadratic(grid, [t[0] for t in table], [f[0] for f in feedback])


def solve_pi(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Value function of the centered problem.

    Uses the original running weights and the idiosyncratic noise
    loading; the linear parts are zero and the additive constant is the
    noise-induced part of the optimal centered cost.
    """
    return _solve(breve_as_plain(c), backend, dt_target, "A", "centered")


def solve_l(c: CoefficientSet, backend: str = "tree", *, dt_target: float | None = None) -> TreeBackwardQuadratic | OdeBackwardQuadratic:
    """Value function of the conditional-mean problem.

    c is the full set or its ``bar_transform``; either gives the same
    problem.  It carries no idiosyncratic noise; the common noise and the
    affine terms b, zeta and varpi enter the linear part and the constant.
    """
    return _solve(bar_transform(c), backend, dt_target, "A+F", "conditional-mean")


def _tree_step(grid: TimeGrid, plus, minus, hat, G, coefficients) -> tuple:
    """A step's value table and feedback from its children's, plus and minus.

    Branch +/- moves z to Phi z + dt B u, Phi = I + dt A +/- sqrt(dt) D0 e'
    with e the constant coordinate; the idiosyncratic noise adds dt D'hat D,
    hat the children's mean.  Completing the square in u with the
    one-step control matrix G = dt R + (dt B)' hat (dt B) and M =
    mean(Phi' P) dt B + dt S gives the feedback G^-1 M'.  hat and G come
    from the caller, which has tested G; R enters through G only.
    """
    A, B, S, Q, _, D, D0 = coefficients
    dt = grid.dt
    loading = np.zeros_like(A)
    loading[..., -1] = grid.sqrt_dt * D0
    phi = np.eye(A.shape[-1]) + dt * A
    phis = (phi + loading, phi - loading)
    Bbar = dt * B
    phi_p = [_t(phi) @ child for phi, child in zip(phis, (plus, minus))]
    M = 0.5 * (phi_p[0] + phi_p[1]) @ Bbar + dt * S
    K = np.linalg.solve(G, _t(M))
    quad = 0.5 * (phi_p[0] @ phis[0] + phi_p[1] @ phis[1]) + dt * Q - M @ K
    quad[..., -1, -1] += dt * np.einsum("...i,...ij,...j->...", D, hat, D)
    return 0.5 * (quad + _t(quad)), K


def _control_matrix(dt: float, B, R, hat) -> np.ndarray:
    """The one-step control matrix G = dt R + (dt B)' hat (dt B), symmetrized."""
    Bbar = dt * B
    G = dt * R + _t(Bbar) @ (hat @ Bbar)
    return 0.5 * (G + _t(G))


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# -- convexity margins -----------------------------------------------------


def convexity_margins(c: CoefficientSet, n_atoms: int) -> tuple[float, float]:
    """Exact convexity margins (margin_bar, margin_breve) of the two sub-problems.

    A sub-problem's margin is the largest lam at which its homogeneous
    cost form minus lam times the squared control norm (metric dt times
    node probability, as in ``lattice.inner_product``) is positive
    definite on its controls.  Completing the square, that holds exactly
    when every one-step matrix G_k = dt (R - lam I) + Bbar' hat Bbar of
    the level sweep with R - lam I passes the Cholesky test that a tree
    solve, the sweep at lam = 0, refuses on.  Each margin is the passing
    end of a bracket narrower than MARGIN_REL relative, so a certified
    lower bound.  The full problem's form splits into the two
    sub-problems' forms, so min(margin_bar, margin_breve) is its margin.

    The centered controls have conditional mean zero given the common
    noise.  With n_atoms = 1 nothing but the common noise is known at step
    0, so they vanish there: the centered search then skips step 0's
    matrix, and with one step there is no centered control and its
    margin is inf.

    For coefficients that do not depend on W0 the margin is lam_min(K) /
    dt, K the Hessian over deterministic controls of the steps searched
    (``_predicted_margin``).  The sweep is K's block elimination, so it
    passes exactly below that value.  Deterministic controls reach it:
    a control v xi, with v deterministic and xi a scalar known where the
    controls start, has the state x_v xi, so its form and its norm are
    v's times E[xi^2].  The conditional-mean problem takes xi = 1.  The
    centered one needs xi of conditional mean zero given the common
    noise: a zero-mean function of the atom, or with one atom step 0's
    idiosyncratic increment dW, known from step 1 on.
    """
    bar = _margin(homogeneous(bar_transform(c)))
    return bar, _margin(homogeneous(breve_as_plain(c)), first=int(n_atoms < 2))


def _margin(p: CoefficientSet, first: int = 0) -> float:
    """Largest shift of R at which p's sweep goes through steps first..N-1; p is homogeneous.

    A deterministic p tries its predicted margin lam first
    (``_predicted_margin``).  One sweep at lam - h and lam + h, with 2h
    below the search's stopping width, certifies lam - h when exactly
    the lower shift passes: the passing end of a bracket narrower than
    MARGIN_REL relative, as the search returns.  A node-dependent p, a
    non-finite prediction and a certificate that fails by rounding fall
    back to the search.

    The search's bracket starts at [0, eigmin(G_{N-1}(0)) / dt], whose
    top is exact because P_N = QT does not move with the shift.  Each
    sweep tries MARGIN_SHIFTS shifts spread evenly inside the bracket,
    and its bottom too until a shift has passed.  A cost that is not
    convex fails at 0, and the bracket then extends below 0, doubling,
    until a shift passes.
    """
    grid = p.grid()
    if first >= grid.n_steps:
        return math.inf
    coefficients = _level_coefficients(p)
    terminal = np.pad(p.QT, (0, 1))
    hi, floor = _margin_scale(grid, coefficients, terminal)

    if p.deterministic:
        lam = _predicted_margin(grid, coefficients, terminal, first)
        if math.isfinite(lam):
            # [lam - h, lam + h] is half the stopping width wide, room for lam's rounding
            h = 0.25 * max(MARGIN_REL * abs(lam), floor)
            shifts = np.array([lam - h, lam + h])
            if len(_level_sweep(grid, coefficients, terminal, shifts, first)[0][first]) == 1:
                return float(shifts[0])

    lo, width, passed = min(0.0, hi), abs(hi) or 1.0, False
    while not passed or hi - lo > max(MARGIN_REL * max(abs(lo), abs(hi)), floor):
        # until a shift has passed, lo is tried too
        shifts = np.linspace(lo, hi, MARGIN_SHIFTS + 2)[int(passed):-1]
        m = len(_level_sweep(grid, coefficients, terminal, shifts, first)[0][first])
        if m < len(shifts):
            hi = shifts[m]
        if m:
            lo, passed = shifts[m - 1], True
        elif not passed:
            lo, width = lo - width, 2.0 * width
    return float(lo)


def _margin_scale(grid: TimeGrid, coefficients: list, terminal) -> tuple[float, float]:
    """The margin's upper bound eigmin(G_{N-1}(0)) / dt and the narrowest bracket worth searching."""
    _, B, _, _, R, _, _ = coefficients[-1]
    eig = np.linalg.eigvalsh(_control_matrix(grid.dt, B, R, terminal)) / grid.dt
    # below a few ulps of G's scale the Cholesky test cannot tell shifts apart
    return float(eig.min()), 4.0 * np.finfo(float).eps * (float(np.abs(eig).max()) or 1.0)


def _predicted_margin(grid: TimeGrid, coefficients: list, terminal, first: int) -> float:
    """lam_min(K) / dt, K the Hessian of the cost over deterministic controls of steps first..N-1.

    coefficients are a homogeneous, deterministic set's
    ``_level_coefficients``, on one level.  The state starts at 0 at step
    first; resp holds its response to each control, so x_k = resp u and
    the cost sum_k dt (x'Qx + 2x'Su + u'Ru)/2 + x_N' QT x_N / 2 has the
    Hessian K term by term.  NaN where K is not finite.
    """
    dt, d = grid.dt, coefficients[0][1].shape[-1]
    size = (grid.n_steps - first) * d
    K = np.zeros((size, size))
    resp = np.zeros((len(terminal), size))
    # an overflowing K is refused below, as NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(first, grid.n_steps):
            A, B, S, Q, R, _, _ = (a[0] for a in coefficients[k])
            u = slice((k - first) * d, (k - first + 1) * d)
            cross = _t(resp) @ (dt * S)
            K += _t(resp) @ (dt * Q) @ resp
            K[:, u] += cross
            K[u, :] += _t(cross)
            K[u, u] += dt * R
            resp = (np.eye(len(A)) + dt * A) @ resp
            resp[:, u] += dt * B
        K += _t(resp) @ terminal @ resp
    if not np.isfinite(K).all():
        return math.nan
    return float(np.linalg.eigvalsh(0.5 * (K + _t(K)))[0]) / dt


def _level_coefficients(p: CoefficientSet) -> list:
    """Each step's ``_augmented`` coefficients per W0 level; one level if p is deterministic."""
    grid = p.grid()
    if p.deterministic:
        return [tuple(a[None] for a in _augmented(p, k)) for k in range(grid.n_steps)]
    return [_augmented(p, k, w0_levels(grid, k)) for k in range(grid.n_steps)]


def _level_sweep(grid: TimeGrid, coefficients: list, terminal, shifts, first: int = 0) -> tuple:
    """The tree recursion on the W0 levels for an ascending stack of shifts of R.

    The coefficients are affine in cumulative W0, so every value depends
    on a prefix only through its level, its count of "-" steps: step k
    has k+1 levels, and level j has the children j (+) and j+1 (-).  A
    table of one level stands for all levels of its step: the terminal
    QT, and every table of a p whose coefficients come on one level.
    table[k] (m_k, levels, n+1, n+1) and feedback[k] (m_k, levels, d,
    n+1), for k >= first, hold the m_k leading shifts whose one-step
    matrices pass at steps k..N-1.  Passing is monotone in the shift, so
    the failing shifts are the trailing ones, dropped before
    ``_tree_step`` sees them.
    """
    N = grid.n_steps
    table = [None] * N + [np.broadcast_to(terminal, (len(shifts), 1) + terminal.shape)]
    feedback = [None] * N
    for k in reversed(range(first, N)):
        _, B, _, _, R, _, _ = coefficients[k]
        plus, minus = table[k + 1][:, : k + 1], table[k + 1][:, -(k + 1):]
        R = R - shifts[: len(plus), None, None, None] * np.eye(R.shape[-1])
        hat = 0.5 * (plus + minus)
        G = _control_matrix(grid.dt, B, R, hat)
        m = _leading_pd(G)
        table[k], feedback[k] = _tree_step(grid, plus[:m], minus[:m], hat[:m], G[:m], coefficients[k])
    return table, feedback


def _leading_pd(G: np.ndarray) -> int:
    """How many leading shifts of G (shifts, levels, d, d) pass the Cholesky test at every level.

    Tries the whole stack first, as at every step but the binding one all
    shifts pass, then bisects on the count.  A count is taken only once
    its whole slice has passed, so every counted shift passes even where
    rounding breaks the monotone order.
    """
    lo, hi, mid = 0, len(G), len(G)
    while lo < hi:
        try:
            np.linalg.cholesky(G[lo:mid])
        except np.linalg.LinAlgError:
            hi = mid - 1
        else:
            lo = mid
        mid = (lo + hi + 1) // 2
    return lo


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


def _coeff_tables(c: CoefficientSet, n_fine: int):
    """Per-fine-step coefficient arrays; deterministic coefficients only.

    Fine step j takes the coefficients of the coarse step holding its
    left end j*T/n_fine, so any n_fine works, multiple of n_steps or not.
    """
    if not c.deterministic:
        raise NotDeterministicError(
            "Monte Carlo closed-loop simulation needs deterministic coefficients"
        )
    idx = np.arange(n_fine) * c.n_steps // n_fine
    return {
        name: np.stack([getattr(c, name).at_step(k) for k in range(c.n_steps)])[idx]
        for name in _COEFF_FIELDS
    }


def _ode_sweep(problems, dt_target) -> list:
    """One RK4 sweep of the Riccati equation in z = [x; 1] for a stack of plain sets.

    problems holds (p, drift) pairs of sets on one grid and state size;
    each p must be deterministic, and ``drift`` names p.A in the refusal.
    dP/dt = -(A'P + PA + Q + C'PC + C0'PC0 - W R^-1 W') with W = PB + S
    and the coefficients of ``_augmented``; C = D e' and C0 = D0 e' load
    the constant coordinate e, so their terms sit in the corner.  Every
    product acts on each set's own matrices, so each table is bit for bit
    the table of a sweep of its set alone.
    """
    for p, drift in problems:
        _require_deterministic(p, drift)
    sets = [p for p, _ in problems]
    grid = sets[0].grid()
    n_sub = _fine_steps(grid, dt_target)
    h = grid.dt / n_sub
    times = np.linspace(0.0, grid.horizon, grid.n_steps * n_sub + 1)
    n = sets[0].n
    table = np.empty((len(sets), len(times), n + 1, n + 1))
    P = table[:, -1] = np.stack([np.pad(p.QT, (0, 1)) for p in sets])
    # an escaping solution overflows; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in reversed(range(grid.n_steps)):
            A, B, S, Q, R, D, D0 = (np.stack(co) for co in zip(*(_augmented(p, k) for p in sets)))
            if not all(_leading_pd(r[None, None]) for r in R):
                raise SingularSystemError(
                    f"control weight R is singular at step {k}; refusing to regularize "
                    "-- the control weight must be positive definite on every node")
            # the corner terms as (D P) D row-column products, as for one set
            Dr, Dc, D0r, D0c = D[:, None, :], D[:, :, None], D0[:, None, :], D0[:, :, None]

            def rhs(P):
                W = P @ B + S
                dP = _t(A) @ P + P @ A + Q - W @ np.linalg.solve(R, _t(W))
                dP[:, -1, -1] += ((Dr @ P) @ Dc + (D0r @ P) @ D0c)[:, 0, 0]
                return -dP

            for j in reversed(range(k * n_sub, (k + 1) * n_sub)):
                k1 = rhs(P)
                k2 = rhs(P - 0.5 * h * k1)
                k3 = rhs(P - 0.5 * h * k2)
                k4 = rhs(P - h * k3)
                P = P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                table[:, j] = P = 0.5 * (P + _t(P))
    for t in table:
        finite = np.isfinite(t).all(axis=(1, 2))
        if not finite.all():
            # integration runs backward, so the first failure is the latest time
            t_bad = times[np.flatnonzero(~finite)[-1]]
            raise FiniteEscapeError(
                f"Riccati solution blew up (finite escape): first non-finite value "
                f"at t={t_bad:.6g} integrating backward from T={grid.horizon:.6g}"
            )
    return [OdeBackwardQuadratic(grid=grid, times=times, table=t, n_sub=n_sub) for t in table]
