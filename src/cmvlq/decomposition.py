"""Forward recursions, cost functionals, and the exact splitting.

Everything here works on the enumerated joint tree.  The key fact the
module is built around: taking the conditional expectation of the
discrete state recursion given the common noise yields literally the
conditional-mean recursion driven by the conditioned control, and the
difference yields the centered recursion.  No discretization error
separates the three systems, so the cost identity J = Jbar + Jbreve
holds at floating-point precision and is checked that way.

Both sub-problems are ordinary LQ problems: the bar and breve recursions
and costs run through the full problem's code on the coefficient sets
``coeffs.bar_transform`` and ``coeffs.breve_as_plain``.  A term whose
coefficient is deterministic and zero, as those sets' conditional-mean
terms are, is skipped together with its conditioning fold.  The one
roll-out (``_rollout``, under control rows or a feedback) and the one
cost (``_cost_rows``) run on either tree: the joint one, or its W0-only
form ``tree.common``.  The conditional-mean problem lives on
``tree.common`` alone, its inputs and outputs one value per common-noise
prefix, so its F0-adaptedness holds by construction; the centered one
lives on the joint tree and checks its centering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import Coefficient, CoefficientSet, bar_transform, breve_as_plain
from .errors import AdaptednessError, CmvlqError, ConstraintViolationError, DimensionError
from .lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    JointTree,
    TimeGrid,
    TreeProcess,
    _require_same_tree,
    conditional_expectation_f0,
)

CENTERING_TOL = 1e-12


def _coeff_prefix(coeff: Coefficient, tree: JointTree, k: int) -> np.ndarray:
    """One coefficient at step k, per W0 prefix, with the prefix axis last.

    A deterministic one comes back shared, a matrix as (i, j) and a vector
    as a column (i, 1); a node-dependent one is evaluated once per prefix,
    shape (*coeff.shape, 2**k).  The node products below accept either.
    """
    if coeff.deterministic:
        base = coeff.base[k]
        return base[:, None] if base.ndim == 1 else base
    return np.moveaxis(coeff.at_w0(k, tree.cum_w0_prefix[k]), 0, -1)


def _coeff_rows(coeff: Coefficient, tree: JointTree, k: int) -> np.ndarray:
    """One coefficient on the nodes of step k, node axis last, or shared."""
    value = _coeff_prefix(coeff, tree, k)
    return value if coeff.deterministic else tree.expand_rows(k, value)


def coeff_nodes(coeff: Coefficient, tree: JointTree, k: int) -> np.ndarray:
    """One coefficient on the nodes of step k: coeff.shape if shared, else node-major."""
    if coeff.deterministic:
        return coeff.base[k]
    return np.moveaxis(_coeff_rows(coeff, tree, k), -1, 0)


def _rows_of(p: TreeProcess, steps=None) -> list:
    """A vector process's per-step arrays as (component, node) views."""
    return [v.T for v in p.values[:steps]]


def _process(tree: JointTree, rows) -> TreeProcess:
    """(component, node) arrays as a node-major process, without copying;
    tagged F0-adapted on a tree without idiosyncratic noise.
    """
    adapted = F_ADAPTED if tree.idiosyncratic else F0_ADAPTED
    return TreeProcess(tree, [r.T for r in rows], adapted)


def _mv(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ x per column, for a shared (i, j) or per-column (i, j, m) mat.

    A shared product over one inner index is a broadcast: matmul is
    several times slower on it.
    """
    if mat.ndim == 3:
        return np.einsum("ijm,jm->im", mat, rows)
    return mat * rows if mat.shape[1] == 1 else mat @ rows


def _mtv(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat' @ x per column."""
    return _mv(np.swapaxes(mat, 0, 1), rows)


def _dot(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coef . x per column; coef may be a shared column."""
    if coef.shape[-1] == 1:
        return (coef.T @ rows)[0]
    return np.einsum("im,im->m", coef, rows)


def _quad(rows_l: np.ndarray, mat: np.ndarray, rows_r: np.ndarray) -> np.ndarray:
    return _dot(rows_l, _mv(mat, rows_r))


def _abar(A: np.ndarray, dt: float) -> np.ndarray:
    """I + dt A, shared or per column."""
    return np.eye(A.shape[0]).reshape(A.shape[:2] + (1,) * (A.ndim - 2)) + dt * A


def _plus_prefix(tree: JointTree, k: int, rows: np.ndarray, term: np.ndarray) -> np.ndarray:
    """rows + a term that is shared (trailing axis 1) or given per prefix."""
    return rows + (term if term.shape[-1] == 1 else tree.expand_rows(k, term))


def _atom_values(xi, tree: JointTree, name: str) -> np.ndarray:
    """Initial state per atom, broadcast from a single vector if needed."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = np.broadcast_to(xi, (tree.n_atoms, len(xi))).copy()
    if xi.shape[0] != tree.n_atoms:
        raise DimensionError(name, f"expected {tree.n_atoms} atom rows, got {xi.shape[0]}")
    return xi


def _nonzero(coeff: Coefficient, tree: JointTree, k: int, per_prefix: bool = False):
    """coeff at step k, or None where it is deterministic and zero.

    The coefficient sets of the two sub-problems carry such zeros (no
    conditional-mean terms, one noise each).  Their terms would add exact
    zeros, so they are skipped, and with F the conditioning fold.
    """
    if coeff.zero_at[k]:
        return None
    return (_coeff_prefix if per_prefix else _coeff_rows)(coeff, tree, k)


def _rollout(c: CoefficientSet, tree: JointTree, grid: TimeGrid, control, xi: np.ndarray,
             means: bool = False, leaves: bool = True):
    """The state under a control from initial atoms xi, node axis last.

    control is either the (d, n_nodes(k)) control rows of every step or a
    feedback control(k, x) giving the step-k rows at the step-k state
    rows.  Returns one (n, n_nodes(k)) state array per step, the control
    rows and, if means is set, the per-prefix conditional means (n, 2**k)
    of every step, which the F term folds anyway.  F E[x] + b is summed
    per prefix and expanded once.  With leaves unset the last step's
    noise is not added: the last state entry is then the pre-noise mean
    E_{N-1}[x_N] on the step-(N-1) nodes, and the means stop at N-1.
    """
    if xi.shape[1] != c.n:
        raise DimensionError("xi", f"state dimension {c.n} expected, got {xi.shape[1]}")
    if not np.isfinite(xi).all():
        raise CmvlqError("initial state xi has a non-finite entry")
    feedback = control if callable(control) else lambda k, _x: control[k]
    dt = grid.dt
    x = np.ascontiguousarray(xi.T)  # the atoms are the step-0 nodes, in order
    states, controls, xbars = [x], [], []
    for k in range(grid.n_steps):
        F = _nonzero(c.F, tree, k, per_prefix=True)
        xbar = tree.prefix_mean_rows(k, x) if means or F is not None else None
        xbars.append(xbar)
        u = feedback(k, x)
        controls.append(u)
        drift = _mv(_coeff_rows(c.A, tree, k), x) + _mv(_coeff_rows(c.B, tree, k), u)
        shift = _nonzero(c.b, tree, k, per_prefix=True)
        if F is not None:
            shift = _mv(F, xbar) if shift is None else _mv(F, xbar) + shift
        if shift is not None:
            drift = _plus_prefix(tree, k, drift, shift)
        x = x + dt * drift
        if leaves or k < grid.n_steps - 1:
            x = _add_noise(c, tree, k, x)
        states.append(x)
    if not means:
        return states, controls, None
    if leaves:
        xbars.append(tree.prefix_mean_rows(grid.n_steps, x))
    return states, controls, xbars


def _add_noise(c: CoefficientSet, tree: JointTree, k: int, mean: np.ndarray) -> np.ndarray:
    """The step-(k+1) states from the step-k pre-noise means: mean + D dW + D0 dW0."""
    return tree.children_rows(k, mean, _nonzero(c.D, tree, k), _nonzero(c.D0, tree, k))


def _cost_rows(c: CoefficientSet, tree: JointTree, grid: TimeGrid, x: list, u: list,
               xbars=None) -> float:
    """The mean-field cost of state rows x under control rows u; xbars, if
    given, are the states' per-prefix means, else folded where H needs them.
    """
    has_h = c.H.any()

    def deviation(k):
        if not has_h:
            return x[k]
        xbar = xbars[k] if xbars is not None else tree.prefix_mean_rows(k, x[k])
        return x[k] - tree.expand_rows(k, c.H @ xbar)

    total = 0.0
    for k in range(grid.n_steps):
        e, v = deviation(k), u[k]
        integrand = (
            _quad(e, _coeff_rows(c.Q, tree, k), e)
            + 2.0 * _quad(e, _coeff_rows(c.S, tree, k), v)
            + _quad(v, _coeff_rows(c.R, tree, k), v)
        )
        zeta = _nonzero(c.zeta, tree, k)
        varpi = _nonzero(c.varpi, tree, k)
        if zeta is not None:
            integrand = integrand + 2.0 * _dot(zeta, e)
        if varpi is not None:
            integrand = integrand + 2.0 * _dot(varpi, v)
        total += grid.dt * float(np.dot(tree.probs(k), integrand))
    eT = deviation(grid.n_steps)
    total += float(np.dot(tree.probs(grid.n_steps), _quad(eT, c.QT, eT)))
    return 0.5 * total


def simulate_mft(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, u: TreeProcess, xi
) -> TreeProcess:
    """Roll the mean-field state forward under control u from initial xi.

    The conditional mean entering the drift is recomputed exactly at each
    step from the current state values.
    """
    _check_control(u, c, grid, tree)
    xi = _atom_values(xi, tree, "xi")
    return _process(tree, _rollout(c, tree, grid, _rows_of(u, grid.n_steps), xi)[0])


def simulate_bar(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, v: TreeProcess, xi_bar
) -> TreeProcess:
    """Conditional-mean recursion driven by the common noise only.

    c is the full set or its ``bar_transform``; either gives the same
    problem.  The control v and the returned state live on
    ``tree.common``, one value per common-noise prefix; a process of the
    joint tree is refused.
    """
    xi_bar = np.asarray(xi_bar, dtype=float)
    if xi_bar.shape != (c.n,):
        raise DimensionError("xi_bar", f"expected shape {(c.n,)}, got {xi_bar.shape}")
    return simulate_mft(bar_transform(c), tree.common, grid, v, xi_bar)


def simulate_breve(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, alpha: TreeProcess, xi_breve
) -> TreeProcess:
    """Centered recursion driven by the idiosyncratic noise only.

    Requires a conditionally centered control and a mean-zero initial
    split; under those the state conditions to zero at every step.
    """
    _check_control(alpha, c, grid, tree)
    _check_centered(alpha, tree, "E[alpha|F0] = 0")
    xi_breve = _centered_atoms(xi_breve, tree)
    return simulate_mft(breve_as_plain(c), tree, grid, alpha, xi_breve)


def _centered_atoms(xi_breve, tree: JointTree) -> np.ndarray:
    """Initial centered split per atom; its mean over the atoms must vanish."""
    xi_breve = _atom_values(xi_breve, tree, "xi_breve")
    _check_centered_split(xi_breve, tree.atom_probs)
    return xi_breve


def _check_centered_split(xi_breve: np.ndarray, atom_probs: np.ndarray) -> None:
    """Refuse an initial split per atom whose mean over the atoms is not zero."""
    worst = float(np.max(np.abs(atom_probs @ xi_breve)))
    if not worst <= CENTERING_TOL * (1.0 + float(np.max(np.abs(xi_breve)))):
        raise ConstraintViolationError("E[xi_breve] = 0", worst, CENTERING_TOL)


def eval_cost_mft(
    c: CoefficientSet, x: TreeProcess, u: TreeProcess, tree: JointTree, grid: TimeGrid
) -> float:
    """The mean-field cost as an exact tree sum.

    One half of: running state deviation (x - H xbar) in Q, cross term in
    S, control in R, the two linear terms, plus the terminal deviation in
    QT.
    """
    _check_state(x, c, grid, tree)
    _check_control(u, c, grid, tree)
    return _cost_rows(c, tree, grid, _rows_of(x), _rows_of(u, grid.n_steps))


def eval_cost_bar(
    c: CoefficientSet, y: TreeProcess, v: TreeProcess, tree: JointTree, grid: TimeGrid
) -> float:
    """Cost of the conditional-mean problem for (y, v) on ``tree.common``.

    c is the full set or its ``bar_transform``.
    """
    return eval_cost_mft(bar_transform(c), y, v, tree.common, grid)


def eval_cost_breve(
    c: CoefficientSet, z: TreeProcess, alpha: TreeProcess, tree: JointTree, grid: TimeGrid
) -> float:
    """Cost of the centered problem; both arguments must condition to zero."""
    _check_state(z, c, grid, tree)
    _check_control(alpha, c, grid, tree)
    _check_centered(alpha, tree, "E[alpha|F0] = 0")
    _check_centered(z, tree, "E[z|F0] = 0")
    return eval_cost_mft(breve_as_plain(c), z, alpha, tree, grid)


@dataclass(frozen=True)
class SplitPair:
    """Conditional-mean and centered components of an admissible pair."""

    xbar: TreeProcess
    ubar: TreeProcess
    xbreve: TreeProcess
    ubreve: TreeProcess


def split_pair(x: TreeProcess, u: TreeProcess, tree: JointTree) -> SplitPair:
    if x.adapted != F_ADAPTED or u.adapted != F_ADAPTED:
        raise AdaptednessError("split_pair expects F-adapted state and control")
    xbar = conditional_expectation_f0(x, tree)
    ubar = conditional_expectation_f0(u, tree)
    xbreve = TreeProcess(tree, [a - b for a, b in zip(x.values, xbar.values)], F_ADAPTED)
    ubreve = TreeProcess(tree, [a - b for a, b in zip(u.values, ubar.values)], F_ADAPTED)
    return SplitPair(xbar, ubar, xbreve, ubreve)


@dataclass(frozen=True)
class DecompositionReport:
    j_total: float
    j_bar: float
    j_breve: float

    @property
    def residual(self) -> float:
        return abs(self.j_total - self.j_bar - self.j_breve)

    @property
    def relative_residual(self) -> float:
        return self.residual / max(1.0, abs(self.j_total))


def check_decomposition(
    c: CoefficientSet, x: TreeProcess, u: TreeProcess, tree: JointTree, grid: TimeGrid
) -> DecompositionReport:
    """Evaluate J(u), Jbar(ubar), Jbreve(ubreve) and their identity residual.

    The split state components are used directly: the conditional mean of
    an admissible state IS the bar state of the conditioned control, and
    the remainder IS the breve state, exactly on the tree.  The bar pair
    is costed where it lives, on ``tree.common``; the centered pair is
    centered by construction and costed without the centering checks.
    """
    if x.adapted != F_ADAPTED or u.adapted != F_ADAPTED:
        raise AdaptednessError("check_decomposition expects F-adapted state and control")
    j_total = eval_cost_mft(c, x, u, tree, grid)
    xs, us = _rows_of(x), _rows_of(u, grid.n_steps)
    xbar = [tree.prefix_mean_rows(k, r) for k, r in enumerate(xs)]
    ubar = [tree.prefix_mean_rows(k, r) for k, r in enumerate(us)]
    j_bar = _cost_rows(bar_transform(c), tree.common, grid, xbar, ubar)

    def centered(rows, means):
        return [r - tree.expand_rows(k, m) for k, (r, m) in enumerate(zip(rows, means))]

    j_breve = _cost_rows(breve_as_plain(c), tree, grid, centered(xs, xbar), centered(us, ubar))
    return DecompositionReport(j_total, j_bar, j_breve)


def lemma_identities(
    c: CoefficientSet, x: TreeProcess, u: TreeProcess, tree: JointTree, grid: TimeGrid
) -> dict[str, tuple[float, float]]:
    """Both sides of each cross-term identity behind the decomposition.

    Keys i..v are the running-cost identities (state-linear, control-
    linear, control-quadratic, cross, state-quadratic); v_terminal is the
    terminal-weight analogue of v.  Each value is (mean-field side,
    decomposed side); they agree up to round-off.
    """
    cb = bar_transform(c)
    parts = split_pair(x, u, tree)
    dt = grid.dt
    N = grid.n_steps
    xs, us = _rows_of(x), _rows_of(u, N)
    xbars, ubars = _rows_of(parts.xbar), _rows_of(parts.ubar, N)
    xbres, ubres = _rows_of(parts.xbreve), _rows_of(parts.ubreve, N)
    acc = {key: [0.0, 0.0] for key in ("i", "ii", "iii", "iv", "v")}
    for k in range(N):
        xk, uk = xs[k], us[k]
        xbar, ubar = xbars[k], ubars[k]
        xbre, ubre = xbres[k], ubres[k]
        e = xk - c.H @ xbar
        Q, S, R, zeta, varpi = (_coeff_rows(co, tree, k) for co in (c.Q, c.S, c.R, c.zeta, c.varpi))
        Qb, Sb, zb = (_coeff_rows(co, tree, k) for co in (cb.Q, cb.S, cb.zeta))
        sides = {
            "i": (_dot(zeta, e), _dot(zb, xbar)),
            "ii": (_dot(varpi, uk), _dot(varpi, ubar)),
            "iii": (_quad(uk, R, uk), _quad(ubre, R, ubre) + _quad(ubar, R, ubar)),
            "iv": (_quad(e, S, uk), _quad(xbre, S, ubre) + _quad(xbar, Sb, ubar)),
            "v": (_quad(e, Q, e), _quad(xbre, Q, xbre) + _quad(xbar, Qb, xbar)),
        }
        for key, pair in sides.items():
            for side, values in enumerate(pair):
                acc[key][side] += dt * float(tree.probs(k) @ values)

    out = {key: (lhs, rhs) for key, (lhs, rhs) in acc.items()}
    pN = tree.probs(N)
    xbarT, xbreT = xbars[N], xbres[N]
    eT = xs[N] - c.H @ xbarT
    lhs = float(pN @ _quad(eT, c.QT, eT))
    rhs = float(
        pN @ (_quad(xbreT, c.QT, xbreT) + _quad(xbarT, cb.QT, xbarT))
    )
    out["v_terminal"] = (lhs, rhs)
    return out


# -- shared input checks ----------------------------------------------------


def _check_control(u: TreeProcess, c, grid: TimeGrid, tree: JointTree):
    if u.n_step_arrays < grid.n_steps:
        raise DimensionError("control", f"need values at steps 0..{grid.n_steps - 1}")
    if u.values[0].shape[1:] != (c.d,):
        raise DimensionError(
            "control", f"payload {(c.d,)} expected, got {u.values[0].shape[1:]}"
        )
    _require_same_tree(u, tree, "control")


def _check_state(x: TreeProcess, c, grid: TimeGrid, tree: JointTree):
    _require_same_tree(x, tree, "state")
    if x.n_step_arrays != grid.n_steps + 1:
        raise DimensionError("state", f"need values at steps 0..{grid.n_steps}")
    if x.values[0].shape[1:] != (c.n,):
        raise DimensionError(
            "state", f"payload {(c.n,)} expected, got {x.values[0].shape[1:]}"
        )


def _check_centered(p: TreeProcess, tree: JointTree, label: str):
    """Refuse a process whose conditional mean given W0 is not zero, or not finite."""
    worst = float(np.max([np.max(np.abs(tree.prefix_mean(k, v)), initial=0.0)
                          for k, v in enumerate(p.values)]))
    scale = float(np.max([np.max(np.abs(v), initial=1.0) for v in p.values]))
    if not worst <= CENTERING_TOL * scale:
        raise ConstraintViolationError(label, worst, CENTERING_TOL)
