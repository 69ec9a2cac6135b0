"""Brute-force quadratic-program reference solver.

The cost is an exact quadratic in the stacked per-node controls, so the
discretized problem can be solved without any control theory: compute
the gradient by plain chain rule through the recursion (the adjoint
kernel ``decomposition._gradient_rows``, which knows nothing about
Riccati equations and which the coupled fixed point reads too) and
minimize with matrix-free conjugate gradients, one gradient evaluation
per Hessian-vector product.
Slow, but an independent certificate for the structured solvers.
Restricted variants minimize over the conditional-mean and centered
admissible classes: the conditional-mean one is the full problem on the
W0-only tree ``tree.common``, one control per common-noise prefix, and
its optimal control stays there; the centered one keeps one control per
node of the joint tree and projects it onto the class, u - E[u|F0], the
orthogonal projection in the metric below (Gould, Hribar & Nocedal 2001).
A QP solve holds one ``decomposition._Prefixed`` table of its coefficient
set for every gradient evaluation, the closing roll-out and the cost, so
each node-dependent coefficient is evaluated once per step and the
kernel's step matrices are built once; the gradient multiplies its
per-prefix matrices into the node rows block by block.

The Hessian carries each node's probability, which falls by 4x per step,
so plain conjugate gradients would need twice the iterations for every
level of depth.  The iteration is therefore preconditioned (Concus,
Golub & O'Leary 1976) by the diagonal metric of the control space's own
inner product E sum_k u_k . v_k dt: each decision variable is weighted by
its probability mass times dt.  That removes the 4^k spread and leaves an
iteration count that does not grow with depth.  The per-node R blocks
are not used: on the tree they need not be definite, only the one-step
matrix must be, and they do not carry the spread in mass that slows the
plain iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, bar_transform, breve_as_plain
from .decomposition import (
    _atom_values, _centered_atoms, _check_control, _cost_rows, _gradient_rows, _Prefixed, _process,
    _rollout, _rows_of, _step_views,
)
from .errors import CmvlqError, ConvergenceError
from .lattice import JointTree, TimeGrid, TreeProcess

CG_TOL = 1e-12


@dataclass(frozen=True)
class QpSolution:
    control: TreeProcess
    cost: float
    gradient_sup: float
    dim: int
    # relative residual ||r|| / ||b|| of every conjugate-gradient iterate
    residual_history: list


def cost_gradient(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, u: TreeProcess, xi
) -> list:
    """Exact partial derivatives of the cost in the raw control entries.

    Returns one (n_nodes(k), d) array per step; entry (i, l) is the
    derivative of the total expected cost with respect to control
    component l at node i.  Derived purely by differentiating the sum
    over nodes: the conditional-mean couplings show up as group-averaged
    back-propagation terms.
    """
    _check_control(u, c, grid, tree)
    xi = _atom_values(xi, tree, "xi")
    return [g.T for g in _gradient(_Prefixed(c, tree, grid), _rows_of(u, grid.n_steps), xi)]


def _gradient(table: _Prefixed, u: list, xi: np.ndarray) -> list:
    """``cost_gradient`` as (component, node) rows at control rows u from initial
    atoms xi: the kernel's rows per unit mass times each node's mass and dt.
    """
    tree, dt = table.tree, table.grid.dt
    out = [None] * len(u)

    def emit(k, s):
        out[k] = s * (tree.probs(k) * dt)

    _gradient_rows(table, u, xi, emit)
    return out


def _solve_quadratic(grad_of, dim: int, *, label: str, metric=1.0):
    """Minimize a quadratic given its affine gradient map on flat vectors.

    Preconditioned conjugate gradients on H u = -g0, where
    H v = grad_of(v) - g0, in the inner product of the diagonal ``metric``
    (positive, one entry per variable; the default is the identity).
    The raw residual is tested before each step, so a zero right-hand
    side returns the zero vector.  Returns the minimizer and the relative
    residual ||r|| / ||b|| of every iterate; a stall or lost curvature
    raises ConvergenceError with the same history, and a non-finite
    residual (a NaN or inf gradient) raises CmvlqError naming the
    iteration, 0 for the right-hand side.
    """
    g0 = grad_of(np.zeros(dim))
    b = -g0
    ustar = np.zeros(dim)
    r = b.copy()
    z = r / metric
    p = z.copy()
    rz = float(r @ z)
    rnorm = np.sqrt(float(r @ r))
    bnorm = float(np.linalg.norm(b)) or 1.0
    history = [rnorm / bnorm]
    while not rnorm <= CG_TOL * bnorm:  # a NaN residual enters the loop and is refused
        if not np.isfinite(rnorm):
            raise CmvlqError(
                f"{label}: non-finite residual in conjugate-gradient iteration {len(history) - 1}"
            )
        if len(history) > 10 * dim:
            raise ConvergenceError(
                f"{label}: conjugate gradients stalled at dim {dim}", history
            )
        Hp = grad_of(p) - g0
        denom = float(p @ Hp)
        if denom <= 0.0:
            raise ConvergenceError(
                f"{label}: curvature lost in conjugate gradients", history
            )
        alpha = rz / denom
        ustar += alpha * p
        r -= alpha * Hp
        z = r / metric
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        rnorm = np.sqrt(float(r @ r))
        history.append(rnorm / bnorm)
    return ustar, history


def _solve_over(c, tree, grid, xi, *, label, centered=False) -> QpSolution:
    """Minimize the cost of ``c`` over one control per node of ``tree``.

    Each decision variable weighs its node's probability mass times dt in
    the conjugate gradients' metric.  With ``centered`` the control is the
    decision vector minus its E[.|F0], the metric-orthogonal projection
    onto the centered class; the node gradient is pulled back through the
    projection's Euclidean adjoint g - M E[g / M | F0] on the nodes, M the
    node masses.  The projection is self-adjoint in the metric, so the
    iterates stay centered.  One table of c's values serves every
    gradient, the closing roll-out and the cost.  ``dim`` is the
    dimension of the class: n_nodes(k) - 2^k free nodes per step and
    control component.  A flat vector holds the steps' (component, node)
    rows one after another, as the coupled fixed point's iterate does.
    """
    N = grid.n_steps
    table = _Prefixed(c, tree, grid)
    xi = _atom_values(xi, tree, "xi")
    masses = [tree.probs(k) for k in range(N)]
    cols = [tree.n_nodes(k) for k in range(N)]
    size = c.d * sum(cols)
    metric = np.empty(size)
    for view, m in zip(_step_views(metric, c.d, cols), masses):
        view[...] = grid.dt * m

    def control(vec):
        rows = _step_views(vec, c.d, cols)
        if centered:
            rows = [r - tree.expand_rows(k, tree.prefix_mean_rows(k, r)) for k, r in enumerate(rows)]
        return rows

    def grad_of(vec):
        out = np.empty(size)
        views = _step_views(out, c.d, cols)
        for k, (view, g, m) in enumerate(zip(views, _gradient(table, control(vec), xi), masses)):
            view[...] = g - m * tree.expand_rows(k, tree.prefix_mean_rows(k, g / m)) if centered else g
        return out

    sol_vec, history = _solve_quadratic(grad_of, size, label=label, metric=metric)
    u = control(sol_vec)
    cost = _cost_rows(table, _rollout(table, u, xi)[0], u)
    gsup = float(np.max(np.abs(grad_of(sol_vec))))
    dim = c.d * sum(tree.n_nodes(k) - (tree.n_prefixes(k) if centered else 0) for k in range(N))
    return QpSolution(
        control=_process(tree, u), cost=cost, gradient_sup=gsup, dim=dim, residual_history=history
    )


def solve_qp_exact(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, xi
) -> QpSolution:
    """Minimize the discretized cost over all adapted controls."""
    return _solve_over(c, tree, grid, xi, label="full control space")


def solve_qp_bar(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, xi_bar
) -> QpSolution:
    """Minimize the conditional-mean cost over common-noise controls.

    c is the full set or its ``bar_transform``.  The decision variable is
    one control per common-noise prefix, of mass 2^-k: one per node of
    ``tree.common``, where the problem is solved and the optimal control
    is returned.
    """
    return _solve_over(
        bar_transform(c), tree.common, grid, np.asarray(xi_bar, dtype=float),
        label="common-noise control space",
    )


def solve_qp_breve(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, xi_breve
) -> QpSolution:
    """Minimize the centered cost over conditionally centered controls.

    The decision variable is one control per node, projected onto the
    centered class by subtracting its E[.|F0].  The initial split must
    have zero mean over the atoms.
    """
    return _solve_over(
        breve_as_plain(c), tree, grid, _centered_atoms(xi_breve, tree),
        label="centered control space", centered=True,
    )
