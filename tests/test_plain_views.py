"""The sub-problems on the full problem's code match their dedicated versions.

``simulate_bar``/``simulate_breve``, ``eval_cost_bar``/``eval_cost_breve``
and ``solve_l`` (its quadratic and affine parts) delegate to the full problem's recursion, cost and
Riccati loop on the sub-problems' coefficient sets (``bar_transform``,
``breve_as_plain``); the references in ``helpers_split`` are the
dedicated bar and breve code.  Agreement is exact, as those sets only
add exact zeros, except for ``solve_l``: it runs one recursion on the
augmented state [x; 1] where the reference runs three, and agrees to
1e-13 relative.  Every conditional-mean entry point applies
``bar_transform`` itself, so the full set and its transform give it the
same problem, bit for bit.
"""

import numpy as np
import pytest
from helpers_split import (
    ref_cost_bar,
    ref_cost_breve,
    ref_simulate_bar,
    ref_simulate_breve,
    ref_solve_l,
    ref_tree_offset,
    rel_gap,
)

from cmvlq.coeffs import bar_transform, homogeneous
from cmvlq.decomposition import eval_cost_bar, eval_cost_breve, simulate_bar, simulate_breve
from cmvlq.fbsde import solve_bar_fbsde, verify_stationarity
from cmvlq.instances import random_instance
from cmvlq.lattice import F0_ADAPTED, F_ADAPTED, TreeProcess
from cmvlq.oracle import solve_qp_bar
from cmvlq.riccati import solve_l


def _same(values, ref):
    return len(values) == len(ref) and all(np.array_equal(a, b) for a, b in zip(values, ref))


def _controls(tree, grid, d, seed):
    rng = np.random.default_rng(seed)
    v = TreeProcess(
        tree.common, [rng.standard_normal((tree.n_prefixes(k), d)) for k in range(grid.n_steps)]
    )
    raw = [rng.standard_normal((tree.n_nodes(k), d)) for k in range(grid.n_steps)]
    alpha = TreeProcess(
        tree, [w - tree.ce_f0_step(k, w)[1] for k, w in enumerate(raw)], F_ADAPTED
    )
    return v, alpha


@pytest.mark.parametrize("node_dependent", [False, True])
@pytest.mark.parametrize("seed", [0, 4, 11, 12])
def test_delegated_sub_problems_match_dedicated_code(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    grid, tree = inst.grid(), inst.tree()
    for c in (inst.coeffs, homogeneous(inst.coeffs)):
        cb = bar_transform(c)
        v, alpha = _controls(tree, grid, c.d, seed)

        y = simulate_bar(cb, tree, grid, v, inst.xi_mean())
        assert y.adapted == F0_ADAPTED
        assert _same(y.values, ref_simulate_bar(cb, tree.common, grid, v, inst.xi_mean()))
        assert eval_cost_bar(cb, y, v, tree, grid) == ref_cost_bar(cb, tree.common, grid, y, v)

        z = simulate_breve(c, tree, grid, alpha, inst.xi_centered())
        assert z.adapted == F_ADAPTED
        assert _same(z.values, ref_simulate_breve(c, tree, grid, alpha, inst.xi_centered()))
        assert eval_cost_breve(c, z, alpha, tree, grid) == ref_cost_breve(c, tree, grid, z, alpha)

        # one augmented recursion against three: the summation order differs
        ll = solve_l(cb)
        values, gains = ref_solve_l(cb)
        offset, gain_const, constant = ref_tree_offset(cb, values)
        for part, ref in zip(
            (ll.values, ll.gain_state, ll.offset, ll.gain_const, ll.constant),
            (values, gains, offset, gain_const, constant),
        ):
            assert rel_gap(part, ref) <= 1e-13


def _same_arrays(a, b) -> bool:
    """Equal bit for bit: same dtype, shape and bytes, also nested in lists."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_arrays(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("node_dependent", [False, True])
@pytest.mark.parametrize("seed", [0, 4, 11, 12])
def test_bar_entry_points_take_the_full_set_or_its_transform(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    c, grid, tree, xi_bar = inst.coeffs, inst.grid(), inst.tree(), inst.xi_mean()
    v, _ = _controls(tree, grid, c.d, seed)
    runs = {}
    for given in (c, bar_transform(c)):
        ll = solve_l(given)
        sol = solve_bar_fbsde(given, tree, grid, xi_bar)
        y = simulate_bar(given, tree, grid, v, xi_bar)
        qp = solve_qp_bar(given, tree, grid, xi_bar)
        runs[given is c] = [
            [ll.values, ll.offset, ll.constant, ll.gain_state, ll.gain_const],
            [getattr(sol, f).values for f in ("state", "control", "costate", "costate_pred",
                                              "noise_load_w0")],
            [sol.cost, sol.backward_residual],
            verify_stationarity(sol).per_step,
            y.values,
            eval_cost_bar(given, y, v, tree, grid),
            [qp.control.values, qp.cost, qp.gradient_sup],
        ]
    assert _same_arrays(runs[True], runs[False])
