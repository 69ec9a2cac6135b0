"""Optimal trajectories, adjoint processes, and the coupled fixed point.

The forward-backward systems of both decomposed problems are solved on
the tree by rolling the state forward under the dynamic-programming
feedback and reading every adjoint quantity off as an honest conditional
expectation over child nodes.  Both sub-problems are one solve,
``_solve_sub``, on their plain coefficient sets: it rolls out the value
function's feedback u = -(K x + k), reads the costate as P x + g, per
prefix (the centered problem's k and g are exact zeros and skipped),
takes its child means as the predicted costate, and then the cost.  Its
``SubSolution`` stores what the pipeline reads (control, predicted
costate, cost), the plain set it was solved on, its initial atoms and
its value function.  On the lattice a state is the roll-out of its
control, so it is rolled out again on every read rather than stored; the
costate and its martingale loadings are formed on first read and cached.
The conditional-mean system lives on ``tree.common``, one node per
common-noise prefix, and only the assembled mean-field control brings it
onto the joint tree.

Every solution, a part, the assembled optimum or the coupled fixed
point, carries its coefficient set, control and initial atoms, and
``verify_stationarity`` checks it with one call of the adjoint kernel
``decomposition._gradient_rows``: the cost's gradient per unit mass at
the control, which the optimum zeroes at machine precision, so the check
certifies rather than approximates.  On the assembled optimum it is the
full mean-field first-order condition, so a fault in either part's
coefficients shows even where each part is stationary for its own.

A separate Picard iteration solves the coupled mean-field system in one
piece, without decomposing first; agreement of the two routes is one of
the strongest end-to-end checks in the test suite.  Its map is the
first-order condition solved for the control, G(u) = u - R^-1 s(u), where
s is the cost's gradient per unit mass from the one adjoint kernel,
``decomposition._gradient_rows``, which the oracle's gradient and the
stationarity check read too.
The kernel rolls out only to the pre-noise mean of step N-1, which is all
the terminal costate needs, and its step matrices are built once per
table; R^-1 is taken once per solve, per prefix.  The map is affine, and
the iterates are mixed by Anderson acceleration over the last five map
evaluations, which on an affine map is GMRES in disguise; with no history
the update is the plain damped one.  The leaves are formed once, for the
returned iterate.  It stops at the first iterate whose undamped control
residual is within tol in relative sup norm, and returns that iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import CoefficientSet, bar_transform, breve_as_plain
from .decomposition import (
    _add_noise, _atom_values, _centered_atoms, _cost_rows, _gradient_rows, _plus_prefix, _Prefixed,
    _prefix_mv, _process, _rollout, _rows_of, _step_views, _sym, simulate_mft,
)
from .errors import CmvlqError, ConvergenceError, DimensionError
from .lattice import JointTree, TimeGrid, TreeProcess
from .riccati import (
    OdeBackwardQuadratic,
    TreeBackwardQuadratic,
    _coeff_tables,
    _ode_sweep,
    solve_l,
    solve_pi,
)


class _RolledOut:
    """A solution whose state is the roll-out of its control.

    coeffs is the coefficient set the solution was solved on (a plain one
    for a sub-problem) and xi its initial atoms.  ``state`` rolls the state
    out under the control on every read (``simulate_mft`` on the control's
    tree and the set's own grid), which reproduces the solver's roll-out
    bit for bit; it is not cached, so a solution that outlives its checks
    holds no state.  A ``dataclasses.replace`` of the control therefore
    reads the state under the new control.
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
    pred = [tree.child_mean_rows(k, costate[k + 1]) for k in range(grid.n_steps)]
    return SubSolution(control=_process(tree, controls), costate_pred=_process(tree, pred),
                       cost=_cost_rows(table, states, controls), value=value, coeffs=p, xi=xi)


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

    The residual is the cost's gradient per unit mass at the solution's
    control, s = R u + S'(x - H xbar) + varpi + B' E_k[costate], from the
    one adjoint kernel ``decomposition._gradient_rows`` on the solution's
    own coefficient set, control tree and initial atoms; per step it is
    sup|s_k| / (1 + sup|u_k|), and a NaN is kept.  The optimal control
    zeroes s exactly, and any perturbation of it shows up at full size.  A
    sub-solution is checked on the plain set it was solved on, a
    conditional-mean one on ``tree.common``; an assembled or coupled
    solution on the full set, which checks the mean-field first-order
    condition itself.  Any other type raises TypeError.
    """
    if not isinstance(solution, _RolledOut):
        raise TypeError(f"unsupported solution type {type(solution).__name__}")
    c, control = solution.coeffs, solution.control
    u = _rows_of(control)
    per = [0.0] * c.n_steps

    def emit(k, s):
        per[k] = float(np.max(np.abs(s))) / (1.0 + float(np.max(np.abs(u[k]))))

    _gradient_rows(_Prefixed(c, control.tree, c.grid()), u, solution.xi, emit)
    return StationarityReport(float(np.max(per)), per)  # np.max keeps a NaN, max() may drop it


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
    """Solve the continuous backward equations and tabulate the gains.

    One RK4 sweep integrates Pi and L together, each bit for bit the
    ``solve_pi`` and ``solve_l`` ODE solution of its own problem.
    """
    grid = c.grid()
    cb = bar_transform(c)
    pi, ll = _ode_sweep([(breve_as_plain(c), "A"), (cb, "A+F")], dt_target)
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

    The map is G(u) = u - R^-1 s(u): s is the cost's gradient per unit
    mass from the one adjoint kernel, ``decomposition._gradient_rows``,
    which the oracle's gradient reads too, and R the symmetrised control
    weight of its step matrices, inverted once per solve and per prefix.
    G(u) solves the first-order condition for the control against the
    predicted adjoint, so a fixed point is a stationary control.

    The iterate is u alone, mixed by Anderson acceleration (type II) over
    the last ``_ANDERSON_DEPTH`` map evaluations with damping as the
    mixing weight: the coefficients minimize the Euclidean norm of the
    combined residual G(u) - u.  With no history the update is the damped
    one, u + damping (G(u) - u).  The map is affine, so the mixing is GMRES
    on it in disguise (Walker & Ni 2011, SINUM 49:1715).

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
    xi = _atom_values(xi, tree, "xi")
    N = grid.n_steps
    table = _Prefixed(c, tree, grid)
    weights = _weight_inverses(table)
    # the iterate as a flat vector, seen per step as (component, node) rows
    cols = [tree.n_nodes(k) for k in range(N)]

    def residual(z, f):
        return _control_residual(table, weights, xi, _step_views(z, c.d, cols),
                                 _step_views(f, c.d, cols))

    z, (x, xbar, pred), history = _anderson(residual, c.d * sum(cols), damping, max_iter, tol)
    x[N] = _add_noise(table, N - 1, x[N])
    if xbar is not None:
        xbar.append(tree.prefix_mean_rows(N, x[N]))
    u = _step_views(z, c.d, cols)
    return CoupledSolution(
        control=_process(tree, u),
        costate_pred=[p.T for p in pred],
        cost=_cost_rows(table, x, u, xbar),
        iterations=len(history),
        residual_history=history,
        coeffs=c,
        xi=xi,
    )


def _weight_inverses(table: _Prefixed) -> list:
    """The inverse of the symmetrised control weight per step, shared or per prefix (axis last)."""
    weights = (_sym(table("R", k)) for k in range(table.grid.n_steps))
    return [np.linalg.inv(R) if R.ndim == 2 else
            np.moveaxis(np.linalg.inv(np.moveaxis(R, -1, 0)), 0, -1) for R in weights]


def _control_residual(table: _Prefixed, weights: list, xi: np.ndarray, u: list, f: list):
    """The Picard map's residual G(u) - u = -R^-1 s(u) at control rows u, written into f.

    Returns the kernel's by-products at u (states, prefix means, predicted
    costate) and per step the relative change |G(u) - u| / (1 + |u|).
    """
    tree = table.tree
    changes = np.empty(len(u))

    def emit(k, s):
        np.negative(_prefix_mv(tree, k, weights[k], s), out=f[k])
        changes[k] = np.max(np.abs(f[k])) / (1.0 + np.max(np.abs(u[k])))

    pred, x, xbar = _gradient_rows(table, u, xi, emit)
    return (x, xbar, pred), changes


def _anderson(residual, size: int, damping: float, max_iter: int, tol: float):
    """Anderson-mixed (type II) fixed-point iteration on a flat vector z.

    residual(z, f) writes the map's residual f = G(z) - z into f and
    returns (by-products, per-step changes).  Returns (z, by-products,
    residual history) at the first z whose largest change is within tol;
    a non-finite change raises.
    """
    z, f = np.zeros(size), np.empty(size)
    # slot j holds one pair of differences, dz = z_{i+1} - z_i in
    # hist[j, 0] and df = f_{i+1} - f_i in hist[j, 1]; f_i waits in the
    # df half of the slot its pair will take
    depth = _ANDERSON_DEPTH
    hist = np.empty((depth, 2, size))
    history = []
    for i in range(max_iter):
        products, changes = residual(z, f)
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
        del products  # the next evaluation replaces them
        if i:
            np.subtract(f, hist[(i - 1) % depth, 1], out=hist[(i - 1) % depth, 1])
        used = min(i, depth)
        mix = 0.0
        if used:
            gamma = _mixing_coefficients(hist[:used, 1], f)
            # dz and df of a slot are adjacent rows: one product mixes both,
            # taken before the step is written into the slot it retires
            weights = np.outer(gamma, [1.0, damping]).ravel()
            mix = weights @ hist[:used].reshape(2 * used, size)
        step = np.multiply(f, damping, out=hist[i % depth, 0])
        step -= mix
        del mix  # the next evaluation should not hold it
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
