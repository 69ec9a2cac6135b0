"""Optimal trajectories, adjoint processes, and the coupled fixed point.

The forward-backward systems of both decomposed problems are solved on
the tree by rolling the state forward under the dynamic-programming
feedback and reading every adjoint quantity off as an honest conditional
expectation over child nodes.  With the one-step-predicted adjoint in
the first-order condition, stationarity holds at machine precision, so
the checks here certify rather than approximate.  Both sub-problems are
one solve, ``_solve_sub``, on their plain coefficient sets: it rolls out
the value function's feedback u = -(K x + k), reads the costate as
P x + g, per prefix (the centered problem's k and g are exact zeros and
skipped), and one adjoint routine gives the predicted costate, the
backward residual and the cost.  Its ``SubSolution`` stores what the
pipeline reads (control, predicted costate, cost, residual), the plain
set it was solved on, its initial atoms and its value function, which is
all ``verify_stationarity`` needs.  On the lattice a state is the
roll-out of its control, so it is rolled out again on every read rather
than stored; the costate and its martingale loadings are formed on first
read and cached.  The conditional-mean system lives on ``tree.common``,
one node per common-noise prefix: it is rolled out, its adjoint read and
its stationarity checked there, and only the assembled mean-field
control brings it onto the joint tree.

A separate Picard iteration solves the coupled mean-field system in one
piece, without decomposing first; agreement of the two routes is one of
the strongest end-to-end checks in the test suite.  Its map (roll-out,
backward adjoint, first-order condition) is affine, and the iterates are
mixed by Anderson acceleration over the last five map evaluations,
which on an affine map is GMRES in disguise; with no history the update
is the plain damped one.  A map evaluation does only the work that
changes from one evaluation to the next: the roll-out stops at the
pre-noise mean of step N-1, which is all the terminal costate needs, the
roll-out reads the solve's table, the backward steps' matrices are built
from it once per solve, per prefix, and each backward step is one stacked
product.  The leaves are formed once, for the returned iterate.  It stops
at the first iterate whose undamped control residual is within tol in
relative sup norm, and returns that iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import CoefficientSet, bar_transform, breve_as_plain
from .decomposition import (
    _abar, _add_noise, _atom_values, _centered_atoms, _cost_rows, _mv, _plus_prefix, _Prefixed,
    _prefix_mtv, _prefix_mv, _process, _rollout, _rows_of, _step_views, simulate_mft,
)
from .errors import CmvlqError, ConvergenceError, DimensionError
from .lattice import JointTree, TimeGrid, TreeProcess
from .riccati import OdeBackwardQuadratic, TreeBackwardQuadratic, _coeff_tables, solve_l, solve_pi


class _RolledOut:
    """A solution whose state is the roll-out of its control.

    coeffs is the plain coefficient set the solution was solved on and xi
    its initial atoms.  ``state`` rolls the state out under the control on
    every read (``simulate_mft`` on the control's tree and the set's own
    grid), which reproduces the solver's roll-out bit for bit; it is not
    cached, so a solution that outlives its checks holds no state.  A
    ``dataclasses.replace`` of the control therefore reads the state under
    the new control.
    """

    @property
    def state(self) -> TreeProcess:
        c = self.coeffs
        return simulate_mft(c, self.control.tree, c.grid(), self.control, self.xi)


@dataclass(frozen=True)
class SubSolution(_RolledOut):
    """Optimal solution of one decomposed problem with its adjoint family.

    coeffs and xi are ``bar_transform(c)`` and the mean initial state as
    one atom row on ``tree.common`` for the conditional-mean problem,
    ``breve_as_plain(c)`` and the centered atoms on the joint tree for the
    centered one; the state is rolled out under the control on every read.
    costate_pred holds the one-step prediction E_k of the next costate,
    which enters the first-order condition.  Formed on first read from the
    state and the value function ``value``: costate, the value's gradient
    P_k x_k + g_k, and noise_load_w / noise_load_w0, the exact martingale
    loadings E_k[costate' dW]/dt of the two noises (``DimensionError`` for
    W on ``tree.common``).
    """

    control: TreeProcess
    costate_pred: TreeProcess
    cost: float
    backward_residual: float
    value: TreeBackwardQuadratic
    coeffs: CoefficientSet
    xi: np.ndarray

    @cached_property
    def costate(self) -> TreeProcess:
        tree = self.control.tree
        return _process(tree, _value_gradient(tree, self.value, _rows_of(self.state)))

    @cached_property
    def noise_load_w(self) -> TreeProcess:
        return _noise_load(self.costate, "w")

    @cached_property
    def noise_load_w0(self) -> TreeProcess:
        return _noise_load(self.costate, "w0")


@dataclass(frozen=True)
class MftSolution(_RolledOut):
    """Mean-field optimum assembled from the two decomposed solutions.

    coeffs is the full set and xi the initial atoms; the state is rolled
    out through the coupled dynamics under the control on every read.
    """

    control: TreeProcess
    bar: SubSolution
    breve: SubSolution
    cost: float
    coeffs: CoefficientSet
    xi: np.ndarray

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
class CoupledSolution(_RolledOut):
    """The coupled fixed point's control, with the full set and the initial
    atoms it was solved from; the state is rolled out under the control on
    every read.
    """

    control: TreeProcess
    costate_pred: list
    cost: float
    iterations: int
    residual_history: list
    coeffs: CoefficientSet
    xi: np.ndarray


def _adjoint(table: _Prefixed, states, controls, costate) -> dict:
    """The predicted costate, cost and backward residual of the plain problem in table.

    states, controls and costate are (component, node) arrays per step;
    costate[k] is the value gradient at the step-k state.  The residual
    is the worst relative gap in the adjoint equation costate_k =
    (I + dt A)' E_k[costate_{k+1}] + dt (Q x_k + S u_k + zeta).  Returns
    the stored fields of a solution; the states and the costate are not kept.
    """
    dt, tree, n_steps = table.grid.dt, table.tree, table.grid.n_steps
    pred = [tree.child_mean_rows(k, costate[k + 1]) for k in range(n_steps)]
    gaps = []
    for k in range(n_steps):
        rhs = _prefix_mtv(tree, k, _abar(table("A", k), dt), pred[k]) + dt * _plus_prefix(
            tree, k,
            _prefix_mv(tree, k, table("Q", k), states[k])
            + _prefix_mv(tree, k, table("S", k), controls[k]),
            table("zeta", k),
        )
        gaps.append(np.max(np.abs(costate[k] - rhs)) / (1.0 + np.max(np.abs(costate[k]))))
    return dict(
        control=_process(tree, controls),
        costate_pred=_process(tree, pred),
        cost=_cost_rows(table, states, controls),
        backward_residual=float(np.max(gaps)),  # np.max keeps a NaN, max() may drop it
    )


def _noise_load(costate: TreeProcess, which: str) -> TreeProcess:
    """The martingale loading E_k[costate_{k+1} dW]/dt of one noise, steps 0..N-1."""
    tree, rows = costate.tree, _rows_of(costate)
    return _process(tree, [tree.child_increment_mean_rows(k, rows[k + 1], which)
                           for k in range(len(rows) - 1)])


def _prefix_rows(arrays) -> list:
    """Per-prefix arrays (2**k, *shape) with the prefix axis moved last."""
    return [np.moveaxis(a, 0, -1) for a in arrays]


def _affine(tree: JointTree, k: int, mat: np.ndarray, term: np.ndarray, rows: np.ndarray):
    """mat @ x + term per node of step k, both per prefix; an all-zero term is skipped."""
    out = _prefix_mv(tree, k, mat, rows)
    return _plus_prefix(tree, k, out, term) if term.any() else out


def _value_gradient(tree: JointTree, value: TreeBackwardQuadratic, states: list) -> list:
    """The value gradient P_k x_k + g_k at the state rows of each step."""
    return [_affine(tree, k, P, g, x) for k, (P, g, x) in
            enumerate(zip(_prefix_rows(value.values), _prefix_rows(value.offset), states))]


def _solve_sub(p: CoefficientSet, tree: JointTree, grid: TimeGrid, value: TreeBackwardQuadratic,
               xi: np.ndarray) -> SubSolution:
    """Roll the plain problem p's optimum forward on tree and extract its adjoints.

    The control is the value function's feedback u = -(K x + k), the
    costate its gradient P x + g, each per prefix.
    """
    table = _Prefixed(p, tree, grid)
    if value.grid != grid:
        raise DimensionError("value", f"solved on {value.grid}, not on {grid}")
    gains, shifts = (_prefix_rows(f[: grid.n_steps]) for f in (value.gain_state, value.gain_const))
    states, controls, _ = _rollout(table, lambda k, x: -_affine(tree, k, gains[k], shifts[k], x), xi)
    costate = _value_gradient(tree, value, states)
    return SubSolution(**_adjoint(table, states, controls, costate), value=value, coeffs=p, xi=xi)


def solve_breve_fbsde(c: CoefficientSet, tree: JointTree, grid: TimeGrid, xi_breve,
                      pi: TreeBackwardQuadratic | None = None) -> SubSolution:
    """Roll the centered optimum forward and extract its adjoints."""
    if pi is None:
        pi = solve_pi(c)
    return _solve_sub(breve_as_plain(c), tree, grid, pi, _centered_atoms(xi_breve, tree))


def solve_bar_fbsde(c: CoefficientSet, tree: JointTree, grid: TimeGrid, xi_bar,
                    l_solution: TreeBackwardQuadratic | None = None) -> SubSolution:
    """Roll the conditional-mean optimum forward and extract its adjoints.

    c is the full set or its ``bar_transform``; either gives the same
    problem.  Roll-out, adjoint and the returned processes are on
    ``tree.common``, one node per common-noise prefix.
    """
    p = bar_transform(c)
    if l_solution is None:
        l_solution = solve_l(p)
    xi_bar = np.array(xi_bar, dtype=float)
    if xi_bar.shape != (p.n,):
        raise DimensionError("xi_bar", f"expected shape {(p.n,)}, got {xi_bar.shape}")
    return _solve_sub(p, tree.common, grid, l_solution, xi_bar[None])


def verify_stationarity(solution) -> StationarityReport:
    """First-order condition residual, per step and overall.

    The residual R u + S' x + B' E_k[costate] + varpi uses the one-step-
    predicted costate, under which the optimal control zeroes it exactly;
    any perturbation of the control shows up at full size.  A sub-solution
    is checked on the plain set it was solved on (``coeffs``), on its
    control's tree and the set's grid: a conditional-mean one on
    ``tree.common``, where it lives.  An assembled solution gives the
    per-step maximum over its two parts; any other type raises TypeError.
    """
    if isinstance(solution, MftSolution):
        rb, rv = verify_stationarity(solution.bar), verify_stationarity(solution.breve)
        per = np.maximum(rb.per_step, rv.per_step).tolist()
        return StationarityReport(float(np.max(per)), per)
    if not isinstance(solution, SubSolution):
        raise TypeError(f"unsupported solution type {type(solution).__name__}")
    p, tree = solution.coeffs, solution.control.tree
    table = _Prefixed(p, tree, p.grid())
    states, controls = _rows_of(solution.state), _rows_of(solution.control)
    preds = _rows_of(solution.costate_pred)
    per = []
    for k in range(p.n_steps):
        control = controls[k]
        res = _plus_prefix(
            tree, k,
            _prefix_mv(tree, k, table("R", k), control)
            + _prefix_mtv(tree, k, table("S", k), states[k])
            + _prefix_mtv(tree, k, table("B", k), preds[k]),
            table("varpi", k),
        )
        per.append(float(np.max(np.abs(res))) / (1.0 + float(np.max(np.abs(control)))))
    return StationarityReport(float(np.max(per)), per)


def assemble_optimal_control(c: CoefficientSet, tree: JointTree, xi) -> MftSolution:
    """Solve both decomposed problems and compose the mean-field optimum.

    xi gives the initial state per tree atom (or a single vector).  The
    assembled control is the sum of the conditional-mean feedback and the
    centered feedback; the state is rolled out under it through the
    coupled dynamics, once here for the cost and again on every read of
    ``state``, so the returned pair is admissible by construction.  The
    bar solution stays on ``tree.common``: its control is expanded onto
    the joint tree only in the sum.
    """
    grid = c.grid()
    xi = _atom_values(xi, tree, "xi")
    if xi.shape != (tree.n_atoms, c.n):
        raise DimensionError("xi", f"expected {(tree.n_atoms, c.n)}, got {xi.shape}")
    xi_mean = tree.atom_probs @ xi
    xi_breve = xi - xi_mean

    bar = solve_bar_fbsde(c, tree, grid, xi_mean)
    breve = solve_breve_fbsde(c, tree, grid, xi_breve)

    u = [tree.expand_rows(k, a) + b
         for k, (a, b) in enumerate(zip(_rows_of(bar.control), _rows_of(breve.control)))]
    table = _Prefixed(c, tree, grid)
    x, _, xbars = _rollout(table, u, xi, means=bool(c.H.any()))
    cost = _cost_rows(table, x, u, xbars)
    return MftSolution(control=_process(tree, u), bar=bar, breve=breve, cost=cost, coeffs=c, xi=xi)


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


def build_ode_policy(c: CoefficientSet, *, dt_target: float | None = None) -> OdePolicy:
    """Solve the continuous backward equations and tabulate the gains."""
    grid = c.grid()
    cb = bar_transform(c)
    pi = solve_pi(c, backend="ode", dt_target=dt_target)
    ll = solve_l(cb, backend="ode", dt_target=dt_target)
    times = pi.times
    n_fine = len(times) - 1
    # the end of the horizon reads the last fine step's coefficients
    rows = np.minimum(np.arange(n_fine + 1), n_fine - 1)
    tabs, bar = (_coeff_tables(p, n_fine) for p in (c, cb))
    R = tabs["R"][rows]
    Bt = np.swapaxes(tabs["B"][rows], 1, 2)
    gain_c = np.linalg.solve(R, np.swapaxes(tabs["S"][rows], 1, 2) + Bt @ pi.values)
    # the mean feedback on z = [xbar; 1], R^-1 ([S; varpi']' + B' L[:n]) for L's
    # augmented table, holds the mean gain and, in its last column, the shift
    Sz_t = np.concatenate([np.swapaxes(bar["S"][rows], 1, 2), bar["varpi"][rows][..., None]],
                          axis=2)
    gain_z = np.linalg.solve(R, Sz_t + Bt @ ll.table[:, :-1])
    return OdePolicy(
        grid=grid,
        times=times,
        gain_centered=gain_c,
        gain_mean=gain_z[..., :-1],
        shift=gain_z[..., -1],
        n_sub=pi.n_sub,
        pi=pi,
        l_solution=ll,
    )


# -- coupled fixed point ----------------------------------------------------

# past map evaluations the Anderson mixing of the coupled iteration combines
_ANDERSON_DEPTH = 5
# shift of the mixing least squares' unit-diagonal normal equations
_ANDERSON_SHIFT = 1e-12


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
    """Anderson-accelerated Picard iteration on the coupled optimality system.

    Each map evaluation (a sweep) simulates the state under the current
    control up to step N-1, solves the composite adjoint recursion backward
    (conditioning on the common noise where the interaction and mean terms
    require it), and maps the predicted adjoint through the pointwise
    first-order condition.  The terminal costate enters only through its
    child means, and the increments have mean zero, so a sweep stops at the
    pre-noise mean of step N-1 and never forms the leaves.  The roll-out's
    coefficients and those of each backward step are built once per solve,
    per prefix, R^-1 folded in, and a step computes the costate and the new
    control together as one stacked product on [x; u; E_k y], its matrix
    expanded block by block, plus one expansion of the per-prefix terms.

    The iterate is mixed by Anderson acceleration (type II) over the last
    ``_ANDERSON_DEPTH`` map evaluations, with damping as the mixing
    weight: the coefficients minimize the Euclidean norm of the combined
    control residual, and the same combination updates the carried
    E[u|F0], which stays the exact conditional mean because the mixing is
    linear.  With no history the update is the damped one, u + damping
    (G(u) - u).  The map is affine, so the mixing is GMRES on it in
    disguise (Walker & Ni 2011, SINUM 49:1715).

    Convergence is measured by the undamped fixed-point residual in the
    control, relative sup norm per step.  The iterate that meets tol is
    returned with its predicted costate and its cost, taken on its state
    with the leaves added once; the state is then dropped and rolled out
    again on read.  iterations counts map evaluations, one residual per
    evaluation in residual_history.  A non-finite change raises
    CmvlqError.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    cb = bar_transform(c)
    xi = _atom_values(xi, tree, "xi")
    N = grid.n_steps
    table, bar = _Prefixed(c, tree, grid), _Prefixed(cb, tree, grid)
    steps = _picard_steps(table, bar)
    # the iterate z = (u, E[u|F0]) and the map's output as flat vectors,
    # seen per step as (component, node) and (component, prefix) rows
    cols = [tree.n_nodes(k) for k in range(N)] + [tree.n_prefixes(k) for k in range(N)]

    def sweep(z, out):
        zv, ov = _step_views(z, c.d, cols), _step_views(out, c.d, cols)
        return _picard_sweep(table, bar, xi, steps, zv[:N], zv[N:], ov[:N], ov[N:])

    z, (x, m, xbar, pred), history = _anderson(
        sweep, c.d * sum(cols), c.d * sum(cols[:N]), damping, max_iter, tol
    )
    x.append(_add_noise(table, N - 1, m))
    xbar.append(tree.prefix_mean_rows(N, x[N]))
    u = _step_views(z, c.d, cols[:N])
    return CoupledSolution(
        control=_process(tree, u),
        costate_pred=[p.T for p in pred],
        cost=_cost_rows(table, x, u, xbar),
        iterations=len(history),
        residual_history=history,
        coeffs=c,
        xi=xi,
    )


def _anderson(sweep, size: int, n_fit: int, damping: float, max_iter: int, tol: float):
    """Anderson-mixed (type II) fixed-point iteration on a flat vector z.

    sweep(z, out) writes the map's value at z into out and returns
    (by-products, per-step changes).  The mixing coefficients are fitted
    on the first n_fit entries of the residual f = G(z) - z and applied to
    all of it.  Returns (z, by-products, residual history) at the first z
    whose largest change is within tol; a non-finite change raises.
    """
    z, g = np.zeros(size), np.empty(size)
    # slot j holds one pair of differences, dz = z_{i+1} - z_i in
    # hist[j, 0] and df = f_{i+1} - f_i in hist[j, 1]; f_i waits in the
    # df half of the slot its pair will take
    depth = _ANDERSON_DEPTH
    hist = np.empty((depth, 2, size))
    history = []
    for i in range(max_iter):
        products, changes = sweep(z, g)
        change = float(np.max(changes))
        if not np.isfinite(change):
            bad = int(np.argmin(np.isfinite(changes)))
            raise CmvlqError(
                f"coupled fixed point: non-finite control change at step {bad} "
                f"in map evaluation {i + 1}"
            )
        history.append(change)
        if change <= tol:
            return z, products, history
        del products  # the next sweep replaces them
        f = np.subtract(g, z, out=g)
        if i:
            np.subtract(f, hist[(i - 1) % depth, 1], out=hist[(i - 1) % depth, 1])
        used = min(i, depth)
        mix = 0.0
        if used:
            gamma = _mixing_coefficients(hist[:used, 1, :n_fit], f[:n_fit])
            # dz and df of a slot are adjacent rows: one product mixes both,
            # taken before the step is written into the slot it retires
            weights = np.outer(gamma, [1.0, damping]).ravel()
            mix = weights @ hist[:used].reshape(2 * used, size)
        step = np.multiply(f, damping, out=hist[i % depth, 0])
        step -= mix
        del mix  # the next sweep should not hold it
        hist[i % depth, 1] = f
        z += step
    raise ConvergenceError(
        f"coupled fixed point did not converge within {max_iter} map evaluations "
        f"(last change {history[-1]:.3e})",
        residual_history=history,
    )


def _mixing_coefficients(df: np.ndarray, f: np.ndarray) -> np.ndarray:
    """gamma minimizing |f - df' gamma|, from the Gram matrix of the rows of df.

    The rows are scaled to unit length and the normal equations shifted
    by _ANDERSON_SHIFT times the identity, so a direction the rows barely
    span gets a damped coefficient: nearly dependent rows cannot blow the
    mixing up.
    """
    gram = df @ df.T
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    scaled = gram / np.outer(norms, norms) + _ANDERSON_SHIFT * np.eye(len(norms))
    return np.linalg.solve(scaled, (df @ f) / norms) / norms


def _picard_steps(table: _Prefixed, bar: _Prefixed) -> list:
    """The backward steps' coefficients, (node, prefix, shift) per step.

    node maps the stacked node rows [x; u; E_k y] to [costate; R^-1 (S'x
    + B' E_k y)], the block matrix [[dt Q, dt S, (I + dt A)'], [R^-1 S',
    0, R^-1 B']].  prefix maps the stacked prefix means [xbar; ubar; ybar]
    and shift adds a constant: the first n + d rows are the terms constant
    on a prefix, dt (F' ybar + (cb.Q - Q) xbar - H'S ubar + cb.zeta) and
    R^-1 (varpi - S'H xbar), which are expanded onto the node rows; the
    last d are R^-1 (S'(I - H) xbar + B' ybar + varpi), the negative of
    the new E[u|F0].  All three are shared at a step where every
    coefficient is deterministic, and at step 0, which has one prefix;
    otherwise they are per prefix, and node is expanded block by block
    where it is applied.  The values come from the solve's tables, table
    for the full set c and bar for its ``bar_transform``; the roll-outs of
    the solve share table, so every coefficient is evaluated once per step.
    """
    c = table.c
    n, d, dt = c.n, c.d, table.grid.dt
    steps = []
    for k in range(table.grid.n_steps):
        A, F, Q, S, R, B, varpi = (_prefix_values(table, name, k)
                                   for name in ("A", "F", "Q", "S", "R", "B", "varpi"))
        Q_bar, zeta_bar = (_prefix_values(bar, name, k) for name in ("Q", "zeta"))
        prefixes = max(len(v) for v in (A, F, Q, S, R, B, varpi, Q_bar, zeta_bar))
        # one solve per prefix: R^-1 [S', B', varpi]
        rhs = _blocks([[np.swapaxes(S, 1, 2), np.swapaxes(B, 1, 2), varpi[..., None]]], prefixes)
        RiSt, RiBt, Rivarpi = np.split(np.linalg.solve(R, rhs), [n, 2 * n], axis=2)
        RiStH = RiSt @ c.H
        zero_dd, zero_dn = np.zeros((1, d, d)), np.zeros((1, d, n))
        node = _blocks([[dt * Q, dt * S, np.swapaxes(np.eye(n) + dt * A, 1, 2)],
                        [RiSt, zero_dd, RiBt]], prefixes)
        prefix = _blocks([[dt * (Q_bar - Q), -dt * (c.H.T @ S), dt * np.swapaxes(F, 1, 2)],
                          [-RiStH, zero_dd, zero_dn],
                          [RiSt - RiStH, zero_dd, RiBt]], prefixes)
        shift = _blocks([[dt * zeta_bar[..., None]], [Rivarpi], [Rivarpi]], prefixes)[..., 0]
        if prefixes == 1:
            node, prefix = node[0], prefix[0]
        else:
            node, prefix = np.ascontiguousarray(np.moveaxis(node, 0, -1)), np.moveaxis(prefix, 0, -1)
        steps.append((node, prefix, shift.T))
    return steps


def _prefix_values(table: _Prefixed, name: str, k: int) -> np.ndarray:
    """A coefficient at step k as (prefix, *shape), one prefix row if shared."""
    coeff = getattr(table.c, name)
    if coeff.deterministic:
        return coeff.base[k][None]
    return np.moveaxis(table(name, k), -1, 0)


def _blocks(rows: list, prefixes: int) -> np.ndarray:
    """A block matrix (prefixes, i, j) from rows of (1 or prefixes, i_b, j_b) blocks."""
    return np.concatenate([
        np.concatenate([np.broadcast_to(b, (prefixes,) + b.shape[1:]) for b in row], axis=2)
        for row in rows
    ], axis=1)


def _picard_sweep(table: _Prefixed, bar: _Prefixed, xi, steps: list, u: list, ubar: list,
                  new_u: list, new_ubar: list):
    """One evaluation of the coupled fixed-point map at (u, E[u|F0]).

    u and ubar are the control's (component, node) rows and their
    per-prefix conditional means; table and bar are the solve's tables of
    the full and the conditional-mean coefficient sets, and steps are
    ``_picard_steps``'s.  The map's control and its conditional mean are
    written into new_u and new_ubar.  Returns the state rows under u at
    steps 0..N-1, the pre-noise mean E_{N-1}[x_N], the states' prefix
    means at steps 0..N-1, the predicted costate rows, and per step the
    relative sup-norm change of the control.
    """
    c, cb, tree = table.c, bar.c, table.tree
    N = table.grid.n_steps
    n, d = c.n, c.d
    x, _, xbar = _rollout(table, u, xi, means=True, leaves=False)
    m = x.pop()
    # the terminal costate enters only through its child means: the
    # increments have mean zero, so E_{N-1}[x_N] = m, and the step-N
    # prefix means fold back to E[m | F0] at step N-1
    yt = c.QT @ m + tree.expand_rows(N - 1, (cb.QT - c.QT) @ tree.prefix_mean_rows(N - 1, m))
    pred = [None] * N
    changes = np.empty(N)
    for k in reversed(range(N)):
        if k < N - 1:
            yt = tree.child_mean_rows(k, cur)
        pred[k] = yt
        node, prefix, shift = steps[k]
        means = _mv(prefix, np.concatenate([xbar[k], ubar[k], tree.prefix_mean_rows(k, yt)]))
        means += shift
        out = _prefix_mv(tree, k, node, np.concatenate([x[k], u[k], yt]))
        out += tree.expand_rows(k, means[:n + d])
        cur = out[:n]
        np.negative(out[n:], out=new_u[k])
        np.negative(means[n + d:], out=new_ubar[k])
        changes[k] = np.max(np.abs(new_u[k] - u[k])) / (1.0 + np.max(np.abs(u[k])))
    return (x, m, xbar, pred), changes
