"""The sampled convexity check: Rayleigh quotients of the homogeneous cost forms.

``riccati.convexity_margins`` computes the exact margins; this sampled
check is independent of it and bounds them from above.  It draws random
controls, rolls them out with the library's one roll-out and costs them
with its one cost functional.
"""

from dataclasses import dataclass

import numpy as np

from cmvlq.coeffs import CoefficientSet, bar_transform, breve_as_plain, homogeneous
from cmvlq.decomposition import _cost_rows, _Prefixed, _process, _rollout
from cmvlq.lattice import JointTree, TimeGrid, inner_product


@dataclass(frozen=True)
class ConvexityReport:
    """Sampled uniform-convexity margins: Rayleigh minima, so upper bounds."""

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
    evaluated on the sub-problems' coefficient sets without their input
    checks; the bar samples live on ``tree.common``, where their forms
    and norms are taken.  At least one sample is required.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    ch = homogeneous(c)
    bar = homogeneous(bar_transform(c))
    breve = breve_as_plain(ch)
    common = tree.common
    N = grid.n_steps

    def form(p: CoefficientSet, on: JointTree, u: list) -> float:
        zero_xi = np.zeros((on.n_atoms, c.n))
        table = _Prefixed(p, on, grid)
        x, _, xbars = _rollout(table, u, zero_xi, means=bool(p.H.any()))
        return 2.0 * _cost_rows(table, x, u, xbars)

    def sq_norm(on: JointTree, u: list) -> float:
        v = _process(on, u)
        return inner_product(v, v, on, grid)

    m_mft = m_bar = m_breve = np.inf
    for j in range(n_samples):
        rng = np.random.default_rng([seed, j])
        u = [rng.standard_normal((tree.n_nodes(k), c.d)).T for k in range(N)]
        nu = sq_norm(tree, u)
        m_mft = min(m_mft, form(ch, tree, u) / nu)

        ubar = [tree.prefix_mean_rows(k, v) for k, v in enumerate(u)]
        nbar = sq_norm(common, ubar)
        if nbar > 1e-14 * nu:
            m_bar = min(m_bar, form(bar, common, ubar) / nbar)
        ubre = [a - tree.expand_rows(k, b) for k, (a, b) in enumerate(zip(u, ubar))]
        nbre = sq_norm(tree, ubre)
        if nbre > 1e-14 * nu:
            m_breve = min(m_breve, form(breve, tree, ubre) / nbre)

        # fresh dedicated samples for the two restricted classes
        v = [rng.standard_normal((common.n_nodes(k), c.d)).T for k in range(N)]
        m_bar = min(m_bar, form(bar, common, v) / sq_norm(common, v))
        raw = [rng.standard_normal((tree.n_nodes(k), c.d)).T for k in range(N)]
        alpha = [w - tree.expand_rows(k, tree.prefix_mean_rows(k, w)) for k, w in enumerate(raw)]
        na = sq_norm(tree, alpha)
        if na > 1e-14:
            m_breve = min(m_breve, form(breve, tree, alpha) / na)
    return ConvexityReport(float(m_mft), float(m_bar), float(m_breve), n_samples, seed)
