"""Forward recursions, cost functionals, and the exact splitting.

Everything here works on the enumerated joint tree.  The key fact the
module is built around: taking the conditional expectation of the
discrete state recursion given the common noise yields literally the
conditional-mean recursion driven by the conditioned control, and the
difference yields the centered recursion.  No discretization error
separates the three systems, so the cost identity J = Jbar + Jbreve
holds at floating-point precision and is checked that way.

Both sub-problems are ordinary LQ problems: after their own input checks
(adaptedness, F0-constancy, centering), the bar and breve recursions and
costs run through the full problem's code on the plain views
``coeffs.bar_as_plain`` and ``coeffs.breve_as_plain``.  A term whose
coefficient is deterministic and zero, as those views' conditional-mean
terms are, is skipped together with its conditioning fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import (
    BarCoefficients,
    Coefficient,
    CoefficientSet,
    bar_as_plain,
    bar_transform,
    breve_as_plain,
    homogeneous,
    homogeneous_bar,
)
from .errors import AdaptednessError, ConstraintViolationError, DimensionError
from .lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    JointTree,
    TimeGrid,
    TreeProcess,
    conditional_expectation_f0,
    inner_product,
)

CENTERING_TOL = 1e-12


def coeff_nodes(coeff: Coefficient, tree: JointTree, k: int) -> np.ndarray:
    """Evaluate one coefficient on the nodes of step k.

    A deterministic coefficient is the same on every node, so its own
    step array comes back, shape coeff.shape, shared by all nodes.  A
    node-dependent one is evaluated once per W0 prefix and expanded,
    shape (n_nodes(k), *coeff.shape).  The node products below accept
    either.
    """
    if coeff.deterministic:
        return coeff.base[k]
    return tree.expand_f0(k, coeff.at_w0(k, tree.cum_w0_prefix[k]))


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec on every node, for a shared (i, j) or per-node (n, i, j) mat."""
    if mat.ndim == 2:
        return vec @ mat.T
    return np.einsum("nij,nj->ni", mat, vec)


def _mtv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat' @ vec on every node."""
    if mat.ndim == 2:
        return vec @ mat
    return np.einsum("nji,nj->ni", mat, vec)


def _quad(vec_l: np.ndarray, mat: np.ndarray, vec_r: np.ndarray) -> np.ndarray:
    return _dot(vec_l, _mv(mat, vec_r))


def _dot(coef: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """coef . vec on every node; coef may be a shared vector."""
    if coef.ndim == 1:
        return vec @ coef
    return np.einsum("ni,ni->n", coef, vec)


def _children(tree: JointTree, k: int, mean: np.ndarray, D=None, D0=None) -> np.ndarray:
    """States at the children of the step-k nodes: mean + D dW + D0 dW0.

    Every node's children take the same four increments, in branch
    order, so a shared loading adds one (4, n) pattern to each node's
    block of children instead of a per-child product.
    """
    x = np.repeat(mean, 4, axis=0)
    for load, dw in ((D, tree.last_dw[k + 1]), (D0, tree.last_dw0[k + 1])):
        if load is None:
            continue
        if load.ndim == 1:
            x.reshape(len(mean), -1)[...] += np.outer(dw[:4], load).ravel()
        else:
            x += np.repeat(load, 4, axis=0) * dw[:, None]
    return x


def _atom_values(xi, tree: JointTree, name: str) -> np.ndarray:
    """Initial state per atom, broadcast from a single vector if needed."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = np.broadcast_to(xi, (tree.n_atoms, len(xi))).copy()
    if xi.shape[0] != tree.n_atoms:
        raise DimensionError(name, f"expected {tree.n_atoms} atom rows, got {xi.shape[0]}")
    return xi


def _nonzero(coeff: Coefficient, tree: JointTree, k: int):
    """coeff on the step-k nodes, or None where it is deterministic and zero.

    The plain views of the two sub-problems carry such zeros (no
    conditional-mean terms, one noise each).  Their terms would add exact
    zeros, so they are skipped, and with F the conditioning fold.
    """
    return None if coeff.zero_at[k] else coeff_nodes(coeff, tree, k)


def simulate_mft(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, u: TreeProcess, xi
) -> TreeProcess:
    """Roll the mean-field state forward under control u from initial xi.

    The conditional mean entering the drift is recomputed exactly at each
    step from the current state values.
    """
    _check_control(u, c, grid, tree)
    xi = _atom_values(xi, tree, "xi")
    if xi.shape[1] != c.n:
        raise DimensionError("xi", f"state dimension {c.n} expected, got {xi.shape[1]}")
    dt = grid.dt
    x = xi[tree.atom_of_node[0]]
    values = [x]
    for k in range(grid.n_steps):
        drift = _mv(coeff_nodes(c.A, tree, k), x) + _mv(coeff_nodes(c.B, tree, k), u.values[k])
        F, b = _nonzero(c.F, tree, k), _nonzero(c.b, tree, k)
        if F is not None:
            drift = drift + _mv(F, tree.ce_f0_step(k, x)[1])
        if b is not None:
            drift = drift + b
        x = _children(tree, k, x + dt * drift, _nonzero(c.D, tree, k), _nonzero(c.D0, tree, k))
        values.append(x)
    return TreeProcess(tree, values, F_ADAPTED)


def simulate_bar(
    cb: BarCoefficients, tree: JointTree, grid: TimeGrid, v: TreeProcess, xi_bar
) -> TreeProcess:
    """Conditional-mean recursion driven by the common noise only."""
    _check_control(v, cb, grid, tree)
    if v.adapted != F0_ADAPTED:
        raise AdaptednessError("bar dynamics require an F0-adapted control")
    v.check_f0_constant()
    xi_bar = np.asarray(xi_bar, dtype=float)
    if xi_bar.shape != (cb.n,):
        raise DimensionError("xi_bar", f"expected shape {(cb.n,)}, got {xi_bar.shape}")
    y = simulate_mft(bar_as_plain(cb), tree, grid, v, xi_bar)
    return TreeProcess(tree, y.values, F0_ADAPTED)


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
    mean = tree.atom_probs @ xi_breve
    scale = 1.0 + float(np.max(np.abs(xi_breve)))
    if float(np.max(np.abs(mean))) > CENTERING_TOL * scale:
        raise ConstraintViolationError("E[xi_breve] = 0", float(np.max(np.abs(mean))), CENTERING_TOL)
    return xi_breve


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
    dev = x.values
    if c.H.any():
        dev = [v - tree.ce_f0_step(k, v)[1] @ c.H.T for k, v in enumerate(dev)]
    total = 0.0
    for k in range(grid.n_steps):
        e, v = dev[k], u.values[k]
        integrand = (
            _quad(e, coeff_nodes(c.Q, tree, k), e)
            + 2.0 * _quad(e, coeff_nodes(c.S, tree, k), v)
            + _quad(v, coeff_nodes(c.R, tree, k), v)
        )
        zeta, varpi = _nonzero(c.zeta, tree, k), _nonzero(c.varpi, tree, k)
        if zeta is not None:
            integrand = integrand + 2.0 * _dot(zeta, e)
        if varpi is not None:
            integrand = integrand + 2.0 * _dot(varpi, v)
        total += grid.dt * float(np.dot(tree.probs(k), integrand))
    eT = dev[grid.n_steps]
    total += float(np.dot(tree.probs(grid.n_steps), _quad(eT, c.QT, eT)))
    return 0.5 * total


def eval_cost_bar(
    cb: BarCoefficients, y: TreeProcess, v: TreeProcess, tree: JointTree, grid: TimeGrid
) -> float:
    """Cost of the conditional-mean problem for F0-adapted (y, v)."""
    _check_state(y, cb, grid, tree)
    _check_control(v, cb, grid, tree)
    for p, what in ((y, "state"), (v, "control")):
        if p.adapted != F0_ADAPTED:
            raise AdaptednessError(f"bar {what} must be tagged F0-adapted")
        p.check_f0_constant()
    return eval_cost_mft(bar_as_plain(cb), y, v, tree, grid)


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
    the remainder IS the breve state, exactly on the tree.
    """
    cb = bar_transform(c)
    parts = split_pair(x, u, tree)
    j_total = eval_cost_mft(c, x, u, tree, grid)
    ubar_f0 = TreeProcess(tree, parts.ubar.values, F0_ADAPTED)
    xbar_f0 = TreeProcess(tree, parts.xbar.values, F0_ADAPTED)
    j_bar = eval_cost_bar(cb, xbar_f0, ubar_f0, tree, grid)
    j_breve = eval_cost_breve(c, parts.xbreve, parts.ubreve, tree, grid)
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
    acc = {key: [0.0, 0.0] for key in ("i", "ii", "iii", "iv", "v")}
    for k in range(grid.n_steps):
        xk, uk = x.values[k], u.values[k]
        xbar, ubar = parts.xbar.values[k], parts.ubar.values[k]
        xbre, ubre = parts.xbreve.values[k], parts.ubreve.values[k]
        e = xk - xbar @ c.H.T
        p = tree.probs(k)
        Q = coeff_nodes(c.Q, tree, k)
        S = coeff_nodes(c.S, tree, k)
        R = coeff_nodes(c.R, tree, k)
        zeta = coeff_nodes(c.zeta, tree, k)
        varpi = coeff_nodes(c.varpi, tree, k)
        Qb = coeff_nodes(cb.Qbar, tree, k)
        Sb = coeff_nodes(cb.Sbar, tree, k)
        zb = coeff_nodes(cb.zetabar, tree, k)

        acc["i"][0] += dt * float(p @ _dot(zeta, e))
        acc["i"][1] += dt * float(p @ _dot(zb, xbar))
        acc["ii"][0] += dt * float(p @ _dot(varpi, uk))
        acc["ii"][1] += dt * float(p @ _dot(varpi, ubar))
        acc["iii"][0] += dt * float(p @ _quad(uk, R, uk))
        acc["iii"][1] += dt * float(p @ (_quad(ubre, R, ubre) + _quad(ubar, R, ubar)))
        acc["iv"][0] += dt * float(p @ _quad(e, S, uk))
        acc["iv"][1] += dt * float(p @ (_quad(xbre, S, ubre) + _quad(xbar, Sb, ubar)))
        acc["v"][0] += dt * float(p @ _quad(e, Q, e))
        acc["v"][1] += dt * float(p @ (_quad(xbre, Q, xbre) + _quad(xbar, Qb, xbar)))

    out = {key: (lhs, rhs) for key, (lhs, rhs) in acc.items()}
    N = grid.n_steps
    pN = tree.probs(N)
    xT = x.values[N]
    xbarT, xbreT = parts.xbar.values[N], parts.xbreve.values[N]
    eT = xT - xbarT @ c.H.T
    lhs = float(pN @ _quad(eT, c.QT, eT))
    rhs = float(
        pN @ (_quad(xbreT, c.QT, xbreT) + _quad(xbarT, cb.QbarT, xbarT))
    )
    out["v_terminal"] = (lhs, rhs)
    return out


@dataclass(frozen=True)
class ConvexityReport:
    """Empirical uniform-convexity margins (upper bounds, Rayleigh minima)."""

    margin_mft: float
    margin_bar: float
    margin_breve: float
    n_samples: int
    seed: int


def estimate_convexity_margin(
    c: CoefficientSet, tree: JointTree, grid: TimeGrid, n_samples: int, seed: int
) -> ConvexityReport:
    """Smallest observed Rayleigh quotient of each homogeneous cost form.

    For each sample the full quadratic form (twice the zero-data cost) is
    divided by the control's squared L2 norm.  The mean-field samples'
    conditional means and centered parts are folded into the bar and
    breve sample sets, which keeps the min(bar, breve) lower bound on the
    mean-field margin valid sample by sample.  The bar and breve samples
    are F0-adapted or centered by construction, so their forms are
    evaluated on the plain views without the sub-problems' input checks.
    """
    ch = homogeneous(c)
    bar = bar_as_plain(homogeneous_bar(bar_transform(c)))
    breve = breve_as_plain(ch)
    zero_xi = np.zeros((tree.n_atoms, c.n))

    def form(p: CoefficientSet, u: TreeProcess) -> float:
        x0 = simulate_mft(p, tree, grid, u, zero_xi)
        return 2.0 * eval_cost_mft(p, x0, u, tree, grid)

    m_mft = np.inf
    m_bar = np.inf
    m_breve = np.inf
    for j in range(n_samples):
        rng = np.random.default_rng([seed, j])
        u = TreeProcess(
            tree,
            [rng.standard_normal((tree.n_nodes(k), c.d)) for k in range(grid.n_steps)],
            F_ADAPTED,
        )
        nu = inner_product(u, u, tree, grid)
        m_mft = min(m_mft, form(ch, u) / nu)

        ubar = conditional_expectation_f0(u, tree)
        nbar = inner_product(ubar, ubar, tree, grid)
        if nbar > 1e-14 * nu:
            m_bar = min(m_bar, form(bar, ubar) / nbar)
        ubre = TreeProcess(tree, [a - b for a, b in zip(u.values, ubar.values)], F_ADAPTED)
        nbre = inner_product(ubre, ubre, tree, grid)
        if nbre > 1e-14 * nu:
            m_breve = min(m_breve, form(breve, ubre) / nbre)

        # fresh dedicated samples for the two restricted classes
        v_pref = [
            rng.standard_normal((tree.n_prefixes(k), c.d)) for k in range(grid.n_steps)
        ]
        v = TreeProcess(
            tree, [tree.expand_f0(k, vp) for k, vp in enumerate(v_pref)], F0_ADAPTED
        )
        nv = inner_product(v, v, tree, grid)
        m_bar = min(m_bar, form(bar, v) / nv)
        raw = TreeProcess(
            tree,
            [rng.standard_normal((tree.n_nodes(k), c.d)) for k in range(grid.n_steps)],
            F_ADAPTED,
        )
        alpha = TreeProcess(
            tree,
            [w - tree.ce_f0_step(k, w)[1] for k, w in enumerate(raw.values)],
            F_ADAPTED,
        )
        na = inner_product(alpha, alpha, tree, grid)
        if na > 1e-14:
            m_breve = min(m_breve, form(breve, alpha) / na)
    return ConvexityReport(float(m_mft), float(m_bar), float(m_breve), n_samples, seed)


# -- shared input checks ----------------------------------------------------


def _check_control(u: TreeProcess, c, grid: TimeGrid, tree: JointTree):
    if u.n_step_arrays < grid.n_steps:
        raise DimensionError("control", f"need values at steps 0..{grid.n_steps - 1}")
    if u.values[0].shape[1:] != (c.d,):
        raise DimensionError(
            "control", f"payload {(c.d,)} expected, got {u.values[0].shape[1:]}"
        )
    if u.tree is not tree and u.tree.n_atoms != tree.n_atoms:
        raise DimensionError("control", "process lives on a different tree")


def _check_state(x: TreeProcess, c, grid: TimeGrid, tree: JointTree):
    if x.n_step_arrays != grid.n_steps + 1:
        raise DimensionError("state", f"need values at steps 0..{grid.n_steps}")
    if x.values[0].shape[1:] != (c.n,):
        raise DimensionError(
            "state", f"payload {(c.n,)} expected, got {x.values[0].shape[1:]}"
        )


def _check_centered(p: TreeProcess, tree: JointTree, label: str):
    worst = 0.0
    scale = 1.0
    for k, v in enumerate(p.values):
        ce = tree.prefix_mean(k, v)
        worst = max(worst, float(np.max(np.abs(ce))) if ce.size else 0.0)
        scale = max(scale, float(np.max(np.abs(v))) if v.size else 0.0)
    if worst > CENTERING_TOL * scale:
        raise ConstraintViolationError(label, worst, CENTERING_TOL)
