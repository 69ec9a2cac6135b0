"""Optimal trajectories, adjoint processes, and the coupled fixed point.

The forward-backward systems of both decomposed problems are solved on
the tree by rolling the state forward under the dynamic-programming
feedback and reading every adjoint quantity off as an honest conditional
expectation over child nodes.  With the one-step-predicted adjoint in
the first-order condition, stationarity holds at machine precision, so
the checks here certify rather than approximate.  Both sub-problems run
through the full problem's code on their plain views: one adjoint
routine gives the predicted costate, the backward residual and the cost
of either, and one first-order residual serves the stationarity check.

A separate Picard iteration solves the coupled mean-field system in one
piece, without decomposing first; agreement of the two routes is one of
the strongest end-to-end checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import BarCoefficients, CoefficientSet, bar_as_plain, bar_transform, breve_as_plain
from .decomposition import (
    _atom_values,
    _centered_atoms,
    _children,
    _mtv,
    _mv,
    coeff_nodes,
    eval_cost_mft,
    simulate_mft,
)
from .errors import ConvergenceError, DimensionError
from .lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    JointTree,
    TimeGrid,
    TreeProcess,
    w0_prefix_cums,
)
from .riccati import (
    OdeBackwardQuadratic,
    OdeOffset,
    TreeBackwardQuadratic,
    TreeOffset,
    solve_l,
    solve_offset,
    solve_pi,
)


@dataclass(frozen=True)
class BreveSolution:
    """Optimal centered system with its adjoint family.

    costate holds Pi_k z_k at every step; costate_pred its one-step
    prediction E_k of the next costate, which is the object entering the
    first-order condition.  noise_load_w / noise_load_w0 are the exact
    martingale loadings E_k[costate' dW]/dt of the two noises.
    """

    state: TreeProcess
    control: TreeProcess
    costate: TreeProcess
    costate_pred: TreeProcess
    noise_load_w: TreeProcess
    noise_load_w0: TreeProcess
    cost: float
    backward_residual: float


@dataclass(frozen=True)
class BarSolution:
    """Optimal conditional-mean system with its adjoint family."""

    state: TreeProcess
    control: TreeProcess
    costate: TreeProcess
    costate_pred: TreeProcess
    noise_load_w0: TreeProcess
    cost: float
    backward_residual: float


@dataclass(frozen=True)
class MftSolution:
    """Mean-field optimum assembled from the two decomposed solutions."""

    state: TreeProcess
    control: TreeProcess
    bar: BarSolution
    breve: BreveSolution
    cost: float

    @property
    def split_residual(self) -> float:
        return abs(self.cost - self.bar.cost - self.breve.cost)


@dataclass(frozen=True)
class StationarityReport:
    max_residual: float
    per_step: list

    @property
    def passed(self) -> bool:
        return bool(self.max_residual < 1e-10)


@dataclass(frozen=True)
class CoupledSolution:
    state: TreeProcess
    control: TreeProcess
    costate_pred: list
    cost: float
    iterations: int
    residual_history: list


def _adjoint(p: CoefficientSet, tree: JointTree, grid: TimeGrid, states, controls, costate,
             adapted, noises) -> dict:
    """The adjoint family, cost and backward residual of plain problem p.

    costate[k] is the value gradient at the step-k state.  The residual is
    the worst relative gap in the adjoint equation costate_k =
    (I + dt A)' E_k[costate_{k+1}] + dt (Q x_k + S u_k + zeta).  Returns
    the fields of a solution, with one noise loading per name in noises.
    """
    dt = grid.dt
    pred = [tree.child_mean(k, costate[k + 1]) for k in range(grid.n_steps)]
    worst = 0.0
    for k in range(grid.n_steps):
        abar = np.eye(p.n) + dt * coeff_nodes(p.A, tree, k)
        rhs = _mtv(abar, pred[k]) + dt * (
            _mv(coeff_nodes(p.Q, tree, k), states[k])
            + _mv(coeff_nodes(p.S, tree, k), controls[k])
            + coeff_nodes(p.zeta, tree, k)
        )
        scale = 1.0 + float(np.max(np.abs(costate[k])))
        worst = max(worst, float(np.max(np.abs(costate[k] - rhs))) / scale)
    x, u = TreeProcess(tree, states, adapted), TreeProcess(tree, controls, adapted)
    fields = dict(
        state=x,
        control=u,
        costate=TreeProcess(tree, costate, adapted),
        costate_pred=TreeProcess(tree, pred, adapted),
        cost=eval_cost_mft(p, x, u, tree, grid),
        backward_residual=worst,
    )
    for which in noises:
        fields["noise_load_" + which] = TreeProcess(
            tree,
            [tree.child_increment_mean(k, costate[k + 1], which) for k in range(grid.n_steps)],
            adapted,
        )
    return fields


def solve_breve_fbsde(
    c: CoefficientSet,
    tree: JointTree,
    grid: TimeGrid,
    xi_breve,
    pi: TreeBackwardQuadratic | None = None,
) -> BreveSolution:
    """Roll the centered optimum forward and extract its adjoints."""
    if pi is None:
        pi = solve_pi(c)
    p = breve_as_plain(c)
    dt = grid.dt
    z = _centered_atoms(xi_breve, tree)[tree.atom_of_node[0]]
    states = [z]
    controls = []
    for k in range(grid.n_steps):
        a = -_mv(pi.node_gain(tree, k), z)
        controls.append(a)
        drift = _mv(coeff_nodes(p.A, tree, k), z) + _mv(coeff_nodes(p.B, tree, k), a)
        z = _children(tree, k, z + dt * drift, coeff_nodes(p.D, tree, k))
        states.append(z)
    costate = [
        _mv(pi.node_values(tree, k), states[k]) for k in range(grid.n_steps + 1)
    ]
    return BreveSolution(
        **_adjoint(p, tree, grid, states, controls, costate, F_ADAPTED, ("w", "w0"))
    )


def solve_bar_fbsde(
    cb: BarCoefficients,
    tree: JointTree,
    grid: TimeGrid,
    xi_bar,
    l_solution: TreeBackwardQuadratic | None = None,
    offset: TreeOffset | None = None,
) -> BarSolution:
    """Roll the conditional-mean optimum forward and extract its adjoints.

    The rollout runs once per common-noise prefix, where the state lives,
    and is expanded onto the nodes afterwards.
    """
    if l_solution is None:
        l_solution = solve_l(cb)
    if offset is None:
        offset = solve_offset(cb, l_solution)
    dt = grid.dt
    sq = grid.sqrt_dt
    cums = w0_prefix_cums(grid)
    xi_bar = np.asarray(xi_bar, dtype=float)
    if xi_bar.shape != (cb.n,):
        raise DimensionError("xi_bar", f"expected shape {(cb.n,)}, got {xi_bar.shape}")

    y = xi_bar[None, :].copy()
    y_pref = [y]
    v_pref = []
    for k in range(grid.n_steps):
        v = -np.einsum("pij,pj->pi", l_solution.gain_state[k], y) - offset.gain_const[k]
        v_pref.append(v)
        Ab = cb.Abar.at_w0(k, cums[k])
        B = cb.B.at_w0(k, cums[k])
        b = cb.b.at_w0(k, cums[k])
        D0 = cb.D0.at_w0(k, cums[k])
        drift = np.einsum("pij,pj->pi", Ab, y) + np.einsum("pij,pj->pi", B, v) + b
        base = np.repeat(y + dt * drift, 2, axis=0)
        signs = np.tile([1.0, -1.0], y.shape[0])[:, None]
        y = base + np.repeat(D0, 2, axis=0) * signs * sq
        y_pref.append(y)

    cost_pref = [
        np.einsum("pij,pj->pi", l_solution.values[k], y_pref[k]) + offset.offset[k]
        for k in range(grid.n_steps + 1)
    ]
    return BarSolution(
        **_adjoint(
            bar_as_plain(cb),
            tree,
            grid,
            [tree.expand_f0(k, yp) for k, yp in enumerate(y_pref)],
            [tree.expand_f0(k, vp) for k, vp in enumerate(v_pref)],
            [tree.expand_f0(k, cp) for k, cp in enumerate(cost_pref)],
            F0_ADAPTED,
            ("w0",),
        )
    )


def verify_stationarity(coeffs, solution, tree: JointTree, grid: TimeGrid) -> StationarityReport:
    """First-order condition residual, per step and overall.

    The residual R u + S' x + B' E_k[costate] + varpi uses the one-step-
    predicted costate, under which the optimal control zeroes it exactly;
    any perturbation of the control shows up at full size.  Accepts a
    bar, breve, or assembled solution (pass the matching coefficient
    object: bar coefficients for the bar solution, the full set
    otherwise).
    """
    if isinstance(solution, MftSolution):
        rb = verify_stationarity(bar_transform(coeffs), solution.bar, tree, grid)
        rv = verify_stationarity(coeffs, solution.breve, tree, grid)
        per = [max(a, b) for a, b in zip(rb.per_step, rv.per_step)]
        return StationarityReport(max(rb.max_residual, rv.max_residual), per)
    if isinstance(solution, BarSolution):
        if not isinstance(coeffs, BarCoefficients):
            raise DimensionError("coeffs", "bar solution needs bar coefficients")
        p = bar_as_plain(coeffs)
    elif isinstance(solution, BreveSolution):
        p = breve_as_plain(coeffs)
    else:
        raise TypeError(f"unsupported solution type {type(solution).__name__}")
    per = []
    for k in range(grid.n_steps):
        control = solution.control.values[k]
        res = (
            _mv(coeff_nodes(p.R, tree, k), control)
            + _mtv(coeff_nodes(p.S, tree, k), solution.state.values[k])
            + _mtv(coeff_nodes(p.B, tree, k), solution.costate_pred.values[k])
            + coeff_nodes(p.varpi, tree, k)
        )
        per.append(float(np.max(np.abs(res))) / (1.0 + float(np.max(np.abs(control)))))
    return StationarityReport(max(per), per)


def assemble_optimal_control(
    c: CoefficientSet, tree: JointTree, xi, *, resimulate: bool = True
) -> MftSolution:
    """Solve both decomposed problems and compose the mean-field optimum.

    xi gives the initial state per tree atom (or a single vector).  The
    assembled control is the sum of the conditional-mean feedback and the
    centered feedback; the state is re-simulated under it through the
    coupled dynamics so the returned pair is admissible by construction.
    """
    grid = c.grid()
    cb = bar_transform(c)
    xi = _atom_values(xi, tree, "xi")
    if xi.shape != (tree.n_atoms, c.n):
        raise DimensionError("xi", f"expected {(tree.n_atoms, c.n)}, got {xi.shape}")
    xi_mean = tree.atom_probs @ xi
    xi_breve = xi - xi_mean

    bar = solve_bar_fbsde(cb, tree, grid, xi_mean)
    breve = solve_breve_fbsde(c, tree, grid, xi_breve)
    u = TreeProcess(
        tree,
        [a + b for a, b in zip(bar.control.values, breve.control.values)],
        F_ADAPTED,
    )
    if resimulate:
        x = simulate_mft(c, tree, grid, u, xi)
    else:
        x = TreeProcess(
            tree,
            [a + b for a, b in zip(bar.state.values, breve.state.values)],
            F_ADAPTED,
        )
    cost = eval_cost_mft(c, x, u, tree, grid)
    return MftSolution(state=x, control=u, bar=bar, breve=breve, cost=cost)


# -- continuous-time feedback for Monte Carlo use ---------------------------


@dataclass(frozen=True)
class OdePolicy:
    """Linear feedback tables on the fine grid of the ODE backend.

    control = -gain_centered (x - xbar) - gain_mean xbar - shift, with
    all three tables indexed by fine-grid time.
    """

    grid: TimeGrid
    times: np.ndarray
    gain_centered: np.ndarray  # (n_fine + 1, d, n)
    gain_mean: np.ndarray      # (n_fine + 1, d, n)
    shift: np.ndarray          # (n_fine + 1, d)
    n_sub: int
    pi: OdeBackwardQuadratic
    l_solution: OdeBackwardQuadratic
    offset: OdeOffset

    def control(self, j: int, x: np.ndarray, xbar: np.ndarray) -> np.ndarray:
        return (
            -(x - xbar) @ self.gain_centered[j].T
            - xbar @ self.gain_mean[j].T
            - self.shift[j]
        )


def build_ode_policy(c: CoefficientSet, *, dt_target: float | None = None) -> OdePolicy:
    """Solve the continuous backward equations and tabulate the gains."""
    grid = c.grid()
    cb = bar_transform(c)
    pi = solve_pi(c, backend="ode", dt_target=dt_target)
    ll = solve_l(cb, backend="ode", dt_target=dt_target)
    off = solve_offset(cb, ll, backend="ode")
    times = pi.times
    k = np.minimum(np.arange(len(times)) // pi.n_sub, grid.n_steps - 1)

    def table(coeff):
        return np.stack([coeff.at_step(j) for j in range(grid.n_steps)])[k]

    R = table(c.R)
    Bt = np.swapaxes(table(c.B), 1, 2)
    gain_c = np.linalg.solve(R, np.swapaxes(table(c.S), 1, 2) + Bt @ pi.values)
    gain_m = np.linalg.solve(R, np.swapaxes(table(cb.Sbar), 1, 2) + Bt @ ll.values)
    rhs = (Bt @ off.offset[..., None])[..., 0] + table(c.varpi)
    shift = np.linalg.solve(R, rhs[..., None])[..., 0]
    return OdePolicy(
        grid=grid,
        times=times,
        gain_centered=gain_c,
        gain_mean=gain_m,
        shift=shift,
        n_sub=pi.n_sub,
        pi=pi,
        l_solution=ll,
        offset=off,
    )


# -- coupled fixed point ----------------------------------------------------


def solve_coupled_mv_fbsde(
    c: CoefficientSet,
    tree: JointTree,
    grid: TimeGrid,
    xi,
    *,
    damping: float = 0.5,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> CoupledSolution:
    """Picard iteration on the coupled mean-field optimality system.

    Each sweep simulates the state under the current control, solves the
    composite adjoint recursion backward (conditioning on the common
    noise where the interaction and mean terms require it), and maps the
    predicted adjoint through the pointwise first-order condition.  The
    update is damped.  Convergence is measured by the undamped fixed-
    point residual in the control, relative sup norm.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    cb = bar_transform(c)
    xi = _atom_values(xi, tree, "xi")
    dt = grid.dt
    N = grid.n_steps
    eye = np.eye(c.n)
    u_vals = [np.zeros((tree.n_nodes(k), c.d)) for k in range(N)]
    history = []
    pred = None
    for _ in range(max_iter):
        u = TreeProcess(tree, u_vals, F_ADAPTED)
        x = simulate_mft(c, tree, grid, u, xi)
        xbars = [tree.ce_f0_step(k, x.values[k])[1] for k in range(N + 1)]
        ubars = [tree.ce_f0_step(k, u_vals[k])[1] for k in range(N)]

        QbT = cb.QbarT
        cur = (
            x.values[N] @ c.QT.T
            + xbars[N] @ (QbT - c.QT).T
        )
        pred = [None] * N
        new_u = [None] * N
        change = 0.0
        for k in reversed(range(N)):
            yt = tree.child_mean(k, cur)
            pred[k] = yt
            ce_yt = tree.ce_f0_step(k, yt)[1]
            A = coeff_nodes(c.A, tree, k)
            F = coeff_nodes(c.F, tree, k)
            Q = coeff_nodes(c.Q, tree, k)
            Qb = coeff_nodes(cb.Qbar, tree, k)
            S = coeff_nodes(c.S, tree, k)
            R = coeff_nodes(c.R, tree, k)
            B = coeff_nodes(c.B, tree, k)
            zb = coeff_nodes(cb.zetabar, tree, k)
            varpi = coeff_nodes(c.varpi, tree, k)
            abar = eye + dt * A

            s_u = _mv(S, u_vals[k])
            s_ubar = _mv(S, ubars[k])
            running = (
                _mv(Q, x.values[k])
                + _mv(Qb - Q, xbars[k])
                + s_u
                - s_ubar @ c.H
                + zb
            )
            cur = _mtv(abar, yt) + dt * (_mtv(F, ce_yt) + running)

            e = x.values[k] - xbars[k] @ c.H.T
            rhs = _mtv(S, e) + _mtv(B, yt) + varpi
            if R.ndim == 2:
                cand = -np.linalg.solve(R, rhs.T).T
            else:
                cand = -np.linalg.solve(R, rhs[..., None])[..., 0]
            new_u[k] = cand
            scale = 1.0 + float(np.max(np.abs(u_vals[k])))
            change = max(change, float(np.max(np.abs(cand - u_vals[k]))) / scale)

        history.append(change)
        if change <= tol:
            cost = eval_cost_mft(c, x, u, tree, grid)
            return CoupledSolution(
                state=x,
                control=u,
                costate_pred=pred,
                cost=cost,
                iterations=len(history),
                residual_history=history,
            )
        u_vals = [
            old + damping * (new - old) for old, new in zip(u_vals, new_u)
        ]
    raise ConvergenceError(
        f"coupled fixed point did not converge within {max_iter} sweeps "
        f"(last change {history[-1]:.3e})",
        residual_history=history,
    )
