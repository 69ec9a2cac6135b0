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
lives on the joint tree, and its solvers refuse an initial split whose
mean over the atoms is not zero.  ``simulate_mft`` and ``eval_cost_mft``
serve all three problems, given the set and the tree of each.

Coefficients reach the tree only through ``_Prefixed``, one table per
coefficient set, tree and grid that each public entry builds and its
kernels read, evaluating each coefficient once per step and per W0 prefix.
Per-prefix values reach the nodes one block of ``NODE_BLOCK`` nodes at a
time: ``_prefix_mv`` multiplies a per-prefix matrix (a node-dependent
coefficient, a gain or value table) into node rows block by block, and
``_cost_rows`` fills each step's integrand block by block into one node
vector, expanding only the block's prefixes of H E[x|F0] and of its
coefficients, before one dot with the node probabilities.  A node's value
comes from its own columns by the same operations either way, so the
results are those of a whole-step expansion bit for bit, no per-node
matrix is formed, and the cost's only whole-step arrays are its integrand
and the node probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, bar_transform, breve_as_plain
from .errors import AdaptednessError, CmvlqError, ConstraintViolationError, DimensionError
from .lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    JointTree,
    TimeGrid,
    TreeProcess,
    _require_same_tree,
)

CENTERING_TOL = 1e-12


# Nodes per block where per-prefix values are expanded onto the nodes of a
# step: a per-prefix coefficient's matrices, or the cost's H E[x|F0].  Only
# one block of them exists at a time.
NODE_BLOCK = 16384
# A block is a whole number of _BLOCK_ALIGN nodes, or the rest of the step.
# A shared coefficient's product is a BLAS call on the block's columns, and
# BLAS picks its kernel by the width (a vector call at one column, a
# remainder loop past the last group of four), so narrower or ragged blocks
# could round differently from one call on the whole step.
_BLOCK_ALIGN = 64


def _node_blocks(tree: JointTree, k: int) -> list:
    """The step-k nodes as consecutive slices of NODE_BLOCK nodes, rounded up to _BLOCK_ALIGN."""
    size = -(-NODE_BLOCK // _BLOCK_ALIGN) * _BLOCK_ALIGN
    n = tree.n_nodes(k)
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


class _Prefixed:
    """A coefficient set's values on one tree, per W0 prefix, each evaluated once per step.

    Calling it gives the value at step k, prefix axis last: a deterministic
    one shared, a matrix as (i, j) and a vector as a column (i, 1); a
    node-dependent one per prefix, shape (*shape, 2**k).  The node
    products accept either.  The set, the tree and the grid must agree:
    the kernels read the time step from ``grid``, and a grid that is not
    the set's is refused rather than solved on.
    """

    def __init__(self, c: CoefficientSet, tree: JointTree, grid: TimeGrid):
        own = c.grid()
        for name, other in (("grid", grid), ("tree", tree.grid)):
            if other != own:
                raise DimensionError(name, f"{other} does not match the coefficients' {own}")
        self.c, self.tree, self.grid = c, tree, grid
        self._memo = {}

    def __call__(self, name: str, k: int) -> np.ndarray:
        if (name, k) not in self._memo:
            coeff = getattr(self.c, name)
            if coeff.deterministic:
                base = coeff.base[k]
                value = base[:, None] if base.ndim == 1 else base
            else:
                value = np.moveaxis(coeff.at_w0(k, self.tree.cum_w0_prefix[k]), 0, -1)
            self._memo[name, k] = value
        return self._memo[name, k]

    def nonzero(self, name: str, k: int):
        """The value at step k, or None where it is deterministic and zero.

        The coefficient sets of the two sub-problems carry such zeros (no
        conditional-mean terms, one noise each).  Their terms would add
        exact zeros, so they are skipped, and with F the conditioning fold.
        """
        return None if getattr(self.c, name).zero_at[k] else self(name, k)

    def at(self, name: str, k: int, nodes: np.ndarray) -> np.ndarray:
        """The value at step k on the given step-k nodes: shared as it is, else taken by prefix id."""
        value = self(name, k)
        return value if getattr(self.c, name).deterministic else np.take(value, nodes, axis=-1)


def _rows_of(p: TreeProcess, steps=None) -> list:
    """A vector process's per-step arrays as (component, node) views."""
    return [v.T for v in p.values[:steps]]


def _step_views(flat: np.ndarray, d: int, cols: list) -> list:
    """Consecutive (d, n) row views of a flat buffer, one per entry of cols."""
    ends = np.cumsum([0] + [d * n for n in cols])
    return [flat[a:b].reshape(d, n) for a, b, n in zip(ends[:-1], ends[1:], cols)]


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


def _prefix_mv(tree: JointTree, k: int, mat: np.ndarray, rows: np.ndarray,
               product=_mv) -> np.ndarray:
    """mat @ x per node of step k, for a shared (i, j) or per-prefix (i, j, 2**k) mat.

    A per-prefix mat is expanded onto one block of nodes at a time, and
    each block's product is the one over its own columns, so the result is
    product (``_mv`` or ``_mtv``) on the expanded mat bit for bit.
    """
    if mat.ndim < 3:
        return product(mat, rows)
    out = None
    nodes = tree.w0_of_node[k]
    for s in _node_blocks(tree, k):
        block = product(np.take(mat, nodes[s], axis=-1), rows[:, s])
        if out is None:
            out = np.empty((len(block), rows.shape[-1]))
        out[:, s] = block
    return out


def _prefix_mtv(tree: JointTree, k: int, mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat' @ x per node of step k.

    Each block is transposed after its expansion, as the whole step's
    expanded mat would be: einsum sums a single column in an order that
    depends on the memory layout.
    """
    return _prefix_mv(tree, k, mat, rows, _mtv)


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
    """Initial state per atom, broadcast from a single vector if needed.

    The result is a copy: a solution keeps its atoms to roll its state out
    again, which a later change to the caller's array must not reach.
    """
    xi = np.array(xi, dtype=float)
    if xi.ndim == 1:
        xi = np.broadcast_to(xi, (tree.n_atoms, len(xi))).copy()
    if xi.shape[0] != tree.n_atoms:
        raise DimensionError(name, f"expected {tree.n_atoms} atom rows, got {xi.shape[0]}")
    return xi


def _rollout(table: _Prefixed, control, xi: np.ndarray, means: bool = False, leaves: bool = True):
    """The state under a control from initial atoms xi, node axis last.

    control is either the (d, n_nodes(k)) control rows of every step or a
    feedback control(k, x) giving the step-k rows at the step-k state
    rows.  Returns one (n, n_nodes(k)) state array per step, the control
    rows and, if means is set, the per-prefix conditional means (n, 2**k)
    of every step, which the F term folds anyway.  F E[x] + b is summed
    per prefix and expanded once.  With leaves unset the last step's
    noise is not added: the last state entry is then the pre-noise mean
    E_{N-1}[x_N] on the step-(N-1) nodes, and the means stop at N-1.
    table holds the coefficient set, the tree and the grid.
    """
    c, tree, grid = table.c, table.tree, table.grid
    if xi.shape[1] != c.n:
        raise DimensionError("xi", f"state dimension {c.n} expected, got {xi.shape[1]}")
    if not np.isfinite(xi).all():
        raise CmvlqError("initial state xi has a non-finite entry")
    feedback = control if callable(control) else lambda k, _x: control[k]
    dt = grid.dt
    x = np.ascontiguousarray(xi.T)  # the atoms are the step-0 nodes, in order
    states, controls, xbars = [x], [], []
    for k in range(grid.n_steps):
        F = table.nonzero("F", k)
        xbar = tree.prefix_mean_rows(k, x) if means or F is not None else None
        xbars.append(xbar)
        u = feedback(k, x)
        controls.append(u)
        drift = _prefix_mv(tree, k, table("A", k), x) + _prefix_mv(tree, k, table("B", k), u)
        shift = table.nonzero("b", k)
        if F is not None:
            shift = _mv(F, xbar) if shift is None else _mv(F, xbar) + shift
        if shift is not None:
            drift = _plus_prefix(tree, k, drift, shift)
        x = x + dt * drift
        if leaves or k < grid.n_steps - 1:
            x = _add_noise(table, k, x)
        states.append(x)
    if not means:
        return states, controls, None
    if leaves:
        xbars.append(tree.prefix_mean_rows(grid.n_steps, x))
    return states, controls, xbars


def _add_noise(table: _Prefixed, k: int, mean: np.ndarray) -> np.ndarray:
    """The step-(k+1) states from the step-k pre-noise means: mean + D dW + D0 dW0."""
    tree = table.tree
    loads = [None if getattr(table.c, name).zero_at[k] else table.at(name, k, tree.w0_of_node[k])
             for name in ("D", "D0")]
    return tree.children_rows(k, mean, *loads)


def _cost_rows(table: _Prefixed, x: list, u: list, xbars=None) -> float:
    """The mean-field cost of state rows x under control rows u; xbars, if
    given, are the states' per-prefix means, else folded where H needs them.

    Each step's integrand is filled one block of nodes at a time into one
    per-node vector: the block's deviation x - H E[x|F0] (only the block's
    prefixes of H E[x|F0] expanded), its node-dependent coefficients and
    its integrand.  Every node's value comes from its own columns by the
    same operations as on the whole step, then one dot with the node
    probabilities sums the step.
    """
    c, tree, grid = table.c, table.tree, table.grid
    has_h = c.H.any()
    N = grid.n_steps
    total = 0.0
    for k in range(N + 1):
        hxbar = None
        if has_h:
            xbar = xbars[k] if xbars is not None else tree.prefix_mean_rows(k, x[k])
            hxbar = c.H @ xbar
        nodes = tree.w0_of_node[k]
        integrand = np.empty(tree.n_nodes(k))
        for s in _node_blocks(tree, k):
            e = x[k][:, s]
            if hxbar is not None:
                e = e - np.take(hxbar, nodes[s], axis=-1)
            if k == N:
                integrand[s] = _quad(e, c.QT, e)
                continue
            v = u[k][:, s]
            Q, S, R = (table.at(name, k, nodes[s]) for name in ("Q", "S", "R"))
            block = _quad(e, Q, e) + 2.0 * _quad(e, S, v) + _quad(v, R, v)
            if not c.zeta.zero_at[k]:
                block = block + 2.0 * _dot(table.at("zeta", k, nodes[s]), e)
            if not c.varpi.zero_at[k]:
                block = block + 2.0 * _dot(table.at("varpi", k, nodes[s]), v)
            integrand[s] = block
        step = float(np.dot(tree.probs(k), integrand))
        total += grid.dt * step if k < N else step
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
    return _process(tree, _rollout(_Prefixed(c, tree, grid), _rows_of(u, grid.n_steps), xi)[0])


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
    return _cost_rows(_Prefixed(c, tree, grid), _rows_of(x), _rows_of(u, grid.n_steps))


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
    centered by construction.
    """
    if x.adapted != F_ADAPTED or u.adapted != F_ADAPTED:
        raise AdaptednessError("check_decomposition expects F-adapted state and control")
    j_total = eval_cost_mft(c, x, u, tree, grid)
    xs, us = _rows_of(x), _rows_of(u, grid.n_steps)
    xbar = [tree.prefix_mean_rows(k, r) for k, r in enumerate(xs)]
    ubar = [tree.prefix_mean_rows(k, r) for k, r in enumerate(us)]
    j_bar = _cost_rows(_Prefixed(bar_transform(c), tree.common, grid), xbar, ubar)

    def centered(rows, means):
        return [r - tree.expand_rows(k, m) for k, (r, m) in enumerate(zip(rows, means))]

    j_breve = _cost_rows(_Prefixed(breve_as_plain(c), tree, grid), centered(xs, xbar),
                         centered(us, ubar))
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
    if x.adapted != F_ADAPTED or u.adapted != F_ADAPTED:
        raise AdaptednessError("lemma_identities expects F-adapted state and control")
    cb = bar_transform(c)
    table, bar = _Prefixed(c, tree, grid), _Prefixed(cb, tree, grid)
    dt = grid.dt
    N = grid.n_steps
    xs, us = _rows_of(x), _rows_of(u, N)
    # the split on the nodes: E[.|F0] expanded, and the remainder
    xbars = [tree.expand_rows(k, tree.prefix_mean_rows(k, r)) for k, r in enumerate(xs)]
    ubars = [tree.expand_rows(k, tree.prefix_mean_rows(k, r)) for k, r in enumerate(us)]
    xbres = [r - m for r, m in zip(xs, xbars)]
    ubres = [r - m for r, m in zip(us, ubars)]
    acc = {key: [0.0, 0.0] for key in ("i", "ii", "iii", "iv", "v")}
    for k in range(N):
        xk, uk = xs[k], us[k]
        xbar, ubar = xbars[k], ubars[k]
        xbre, ubre = xbres[k], ubres[k]
        e = xk - c.H @ xbar
        Q, S, R, Qb, Sb = table("Q", k), table("S", k), table("R", k), bar("Q", k), bar("S", k)
        nodes = tree.w0_of_node[k]
        zeta, varpi = table.at("zeta", k, nodes), table.at("varpi", k, nodes)
        zb = bar.at("zeta", k, nodes)

        def quad(left, mat, right):
            return _dot(left, _prefix_mv(tree, k, mat, right))

        sides = {
            "i": (_dot(zeta, e), _dot(zb, xbar)),
            "ii": (_dot(varpi, uk), _dot(varpi, ubar)),
            "iii": (quad(uk, R, uk), quad(ubre, R, ubre) + quad(ubar, R, ubar)),
            "iv": (quad(e, S, uk), quad(xbre, S, ubre) + quad(xbar, Sb, ubar)),
            "v": (quad(e, Q, e), quad(xbre, Q, xbre) + quad(xbar, Qb, xbar)),
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
