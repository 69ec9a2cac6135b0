"""The (component, node) kernels against their index definitions and a
node-major reference.

The tree kernels keep each state or control component in one contiguous
row, node axis last.  Their properties are checked here against the
definitions by index (``w0_of_node``, ``atom_of_node``, child slots
4i..4i+3), and the roll-out, cost and Picard map built on them against
the node-major reference in ``helpers_node_major``; the gradient
kernel's terminal prediction, read off the pre-noise mean, against the
one built from the leaves.  The same kernels on the W0-only tree
``tree.common`` are checked against the joint tree's on F0-adapted data,
and the bar roll-out and cost there against the node ones.  The two
sides sum in different orders, so agreement is to a relative 1e-14, not
bitwise.
The centered closed loop through the generic roll-out is checked bit
for bit against its dedicated loop in ``helpers_split``.  The
accelerated coupled iteration is checked against the reference's damped
one at its fixed point, to the 1e-8 control tolerance of the
decomposition checks, and its states against the reference roll-out.
"""

import dataclasses

import helpers_node_major as ref
import numpy as np
import pytest
from helpers_slopes import CONTROL_SLOPES, VARPI_SLOPE, sloped_instance
from helpers_split import ref_breve_closed_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq.coeffs import Coefficient, bar_transform
from cmvlq.decomposition import (
    _cost_rows,
    _gradient_rows,
    _Prefixed,
    _rollout,
    check_decomposition,
    eval_cost_mft,
    simulate_mft,
)
from cmvlq.errors import DimensionError
from cmvlq.fbsde import (
    _control_residual,
    _weight_inverses,
    assemble_optimal_control,
    solve_breve_fbsde,
    solve_coupled_mv_fbsde,
    verify_stationarity,
)
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    TimeGrid,
    TreeProcess,
    build_joint_tree,
    inner_product,
)
from cmvlq.oracle import solve_qp_bar, solve_qp_breve, solve_qp_exact
from cmvlq.riccati import convexity_margins, solve_pi

REL = 1e-14


def _close(got, want):
    """Sup-norm distance within REL of the reference's sup norm."""
    return float(np.max(np.abs(np.asarray(got) - want))) <= REL * float(np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(0, 4),
    n_atoms=st.integers(1, 3),
    comps=st.integers(1, 3),
)
def test_row_kernels_match_their_index_definitions(seed, k, n_atoms, comps):
    rng = np.random.default_rng(seed)
    atom_probs = rng.uniform(0.1, 1.0, n_atoms)
    atom_probs /= atom_probs.sum()
    tree = build_joint_tree(TimeGrid(5, 1.0), atom_probs=atom_probs)
    n = tree.n_nodes(k)
    w0, atom = tree.w0_of_node[k], tree.atom_of_node[k]
    values = rng.standard_normal((comps, n))

    # fold: sum over the nodes of each (atom, W0 prefix) pair
    fold = np.zeros((n_atoms, 2**k, comps))
    np.add.at(fold, (atom, w0), values.T)
    np.testing.assert_allclose(tree.fold_rows(k, values), fold.transpose(2, 0, 1), rtol=0, atol=1e-12)

    # prefix mean: probability-weighted mean over the nodes of each prefix
    p = tree.probs(k)
    mean = np.stack([np.bincount(w0, p * row, 2**k) for row in values]) / np.bincount(w0, p, 2**k)
    np.testing.assert_allclose(tree.prefix_mean_rows(k, values), mean, rtol=0, atol=1e-14)

    # expansion: every node takes its prefix's value
    prefix = rng.standard_normal((comps, 2**k))
    assert np.array_equal(tree.expand_rows(k, prefix), prefix[:, w0])

    # child mean and children: node i's children sit in slots 4i..4i+3
    slots = 4 * np.arange(n)
    child = rng.standard_normal((comps, tree.n_nodes(k + 1)))
    want = sum(child[:, slots + j] for j in range(4)) / 4.0
    np.testing.assert_allclose(tree.child_mean_rows(k, child), want, rtol=0, atol=1e-15)

    shared, per_node = rng.standard_normal((comps, 1)), rng.standard_normal((comps, n))
    dw, dw0 = tree.last_dw[k + 1], tree.last_dw0[k + 1]
    for D, D0 in ((None, None), (shared, None), (None, per_node), (per_node, shared)):
        got = tree.children_rows(k, values, D, D0)
        for j in range(4):
            expected = values.copy()
            if D is not None:
                expected = expected + D * dw[slots + j]
            if D0 is not None:
                expected = expected + D0 * dw0[slots + j]
            np.testing.assert_allclose(got[:, slots + j], expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 9])
def test_no_kernel_builds_the_layout_views(seed):
    # the tree stores w0_of_node only; solving, checking and the oracle must
    # run without ever building the views computed on first read
    inst = random_instance(seed, max_steps=4)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    sol = assemble_optimal_control(c, tree, inst.xi)
    verify_stationarity(sol)
    check_decomposition(c, sol.state, sol.control, tree, grid)
    solve_coupled_mv_fbsde(c, tree, grid, inst.xi)
    convexity_margins(c, tree.n_atoms)
    solve_qp_exact(c, tree, grid, inst.xi)
    solve_qp_bar(bar_transform(c), tree, grid, inst.xi_mean())
    solve_qp_breve(c, tree, grid, inst.xi_centered())
    for t in (tree, tree.common):
        assert not {"atom_of_node", "last_dw0", "last_dw"} & set(vars(t))


# seeds whose Picard iteration converges, with and without node-dependent coefficients
CASES = [(seed, nd) for seed in (0, 1, 9, 12) for nd in (False, True)]
# and one whose control and cross weights depend on W0 too, so the map's
# R^-1 is taken per prefix, and one whose varpi does beside a deterministic zeta
PICARD_CASES = CASES + [(9, CONTROL_SLOPES), (9, VARPI_SLOPE)]


def _picard_instance(seed, node_dependent):
    return sloped_instance(seed, node_dependent, max_steps=5)


@pytest.mark.parametrize("seed,node_dependent", CASES)
def test_rollout_and_cost_match_node_major_reference(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    u = random_control(inst, tree, seed=17)
    x = simulate_mft(c, tree, grid, u, inst.xi)
    want = ref.simulate_mft(c, tree, grid, u.values, inst.xi)
    assert len(x.values) == len(want)
    assert all(_close(a, b) for a, b in zip(x.values, want))
    cost = eval_cost_mft(c, x, u, tree, grid)
    assert _close(cost, ref.eval_cost_mft(c, tree, grid, want, u.values))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(0, 4),
    n_atoms=st.integers(1, 3),
    comps=st.integers(1, 3),
)
def test_common_tree_kernels_match_the_joint_ones_on_f0_data(seed, k, n_atoms, comps):
    rng = np.random.default_rng(seed)
    atom_probs = rng.uniform(0.1, 1.0, n_atoms)
    atom_probs /= atom_probs.sum()
    grid = TimeGrid(5, 1.0)
    tree = build_joint_tree(grid, atom_probs=atom_probs)
    common = tree.common
    assert common.common is common and tree.common is common
    assert common.n_nodes(k) == 2**k and np.array_equal(common.w0_of_node[k], np.arange(2**k))

    def on_nodes(step, rows):
        return tree.expand_rows(step, rows)

    values = rng.standard_normal((comps, 2**k))
    child = rng.standard_normal((comps, 2 ** (k + 1)))
    assert _close(tree.prefix_mean_rows(k, on_nodes(k, values)), common.prefix_mean_rows(k, values))
    assert _close(tree.child_mean_rows(k, on_nodes(k + 1, child)),
                  on_nodes(k, common.child_mean_rows(k, child)))
    assert _close(tree.child_increment_mean_rows(k, on_nodes(k + 1, child), "w0"),
                  on_nodes(k, common.child_increment_mean_rows(k, child, "w0")))
    for D0 in (None, rng.standard_normal((comps, 1)), rng.standard_normal((comps, 2**k))):
        per_node = D0 if D0 is None or D0.shape[1] == 1 else on_nodes(k, D0)
        assert _close(tree.children_rows(k, on_nodes(k, values), D0=per_node),
                      on_nodes(k + 1, common.children_rows(k, values, D0=D0)))

    steps = [rng.standard_normal((2**j, comps)) for j in range(grid.n_steps)]
    u_common = TreeProcess(common, steps, F0_ADAPTED)
    u_joint = TreeProcess(tree, [tree.expand_rows(j, a.T).T for j, a in enumerate(steps)], F0_ADAPTED)
    assert _close(inner_product(u_joint, u_joint, tree, grid),
                  inner_product(u_common, u_common, common, grid))

    # the common tree carries no idiosyncratic noise
    with pytest.raises(DimensionError):
        common.child_increment_mean_rows(k, child, "w")
    with pytest.raises(DimensionError):
        common.children_rows(k, values, D=np.ones((comps, 1)))


@pytest.mark.parametrize("seed,node_dependent", CASES)
def test_bar_rollout_and_cost_on_prefixes_match_the_node_ones(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    common = tree.common
    p = bar_transform(c)
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal((c.d, common.n_nodes(k))) for k in range(grid.n_steps)]
    table = _Prefixed(p, common, grid)
    y, _, _ = _rollout(table, v, inst.xi_mean()[None])
    u = TreeProcess(tree, [tree.expand_rows(k, a).T for k, a in enumerate(v)], F_ADAPTED)
    x = simulate_mft(p, tree, grid, u, inst.xi_mean())
    assert all(_close(tree.expand_rows(k, a).T, b) for k, (a, b) in enumerate(zip(y, x.values)))
    cost = _cost_rows(table, y, v)
    assert _close(cost, eval_cost_mft(p, x, u, tree, grid))


@pytest.mark.parametrize("seed,node_dependent", CASES)
def test_centered_closed_loop_matches_its_dedicated_loop(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    pi = solve_pi(c)
    sol = solve_breve_fbsde(c, tree, grid, inst.xi_centered(), pi=pi)
    states, controls = ref_breve_closed_loop(c, tree, grid, inst.xi_centered(), pi)
    assert all(np.array_equal(a.T, b) for a, b in zip(sol.state.values, states, strict=True))
    assert all(np.array_equal(a.T, b) for a, b in zip(sol.control.values, controls, strict=True))


@pytest.mark.parametrize("seed,node_dependent", PICARD_CASES)
def test_picard_matches_node_major_reference(seed, node_dependent):
    inst = _picard_instance(seed, node_dependent)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    N = grid.n_steps
    u = random_control(inst, tree, seed=23).values
    rows = [v.T for v in u]
    f = [np.empty_like(r) for r in rows]
    table = _Prefixed(c, tree, grid)
    (x, _, pred), changes = _control_residual(table, _weight_inverses(table), inst.xi, rows, f)
    want_x, want_pred, want_u, want_change = ref.sweep(c, tree, grid, inst.xi, u)
    # the kernel's states stop at the pre-noise mean of step N-1: it never forms the leaves
    assert all(_close(a.T, b) for a, b in zip(x[:N], want_x[:N], strict=True))
    assert _close(x[N].T, ref.child_mean(tree, N - 1, want_x[N]))
    assert all(_close(a.T, b) for a, b in zip(pred, want_pred, strict=True))
    # the map's value G(u) = u + (G(u) - u)
    assert all(_close((r + g).T, b) for r, g, b in zip(rows, f, want_u, strict=True))
    assert _close(np.max(changes), want_change)


@pytest.mark.parametrize("loads", [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("n_atoms", [1, 3])
@pytest.mark.parametrize("node_dependent", [False, True])
@pytest.mark.parametrize("seed", [0, 9])
def test_terminal_predicted_costate_needs_no_leaves(seed, node_dependent, n_atoms, loads):
    # the kernel reads E_{N-1}[y_N] off the pre-noise mean; the leaves give it too
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=4)
    c, grid = inst.coeffs, inst.grid()
    zero = Coefficient(np.zeros_like(c.D.base))
    c = dataclasses.replace(c, D=c.D if loads[0] else zero, D0=c.D0 if loads[1] else zero)
    cb = bar_transform(c)
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.2, 1.0, n_atoms)
    tree = build_joint_tree(grid, atom_probs=probs / probs.sum())
    xi = rng.uniform(-1.0, 1.0, (n_atoms, c.n))
    N = grid.n_steps
    rows = [rng.standard_normal((c.d, tree.n_nodes(k))) for k in range(N)]
    table = _Prefixed(c, tree, grid)
    pred, _, _ = _gradient_rows(table, rows, xi, lambda k, s: None)
    x, _, xbar = _rollout(table, rows, xi, means=True)
    term = (cb.QT - c.QT) @ xbar[N]
    want = c.QT @ tree.child_mean_rows(N - 1, x[N]) + tree.expand_rows(
        N - 1, 0.5 * (term[:, 0::2] + term[:, 1::2]))
    assert _close(pred[N - 1], want)


@pytest.mark.parametrize("seed,node_dependent", PICARD_CASES)
def test_accelerated_fixed_point_matches_damped_reference(seed, node_dependent):
    inst = _picard_instance(seed, node_dependent)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    got = solve_coupled_mv_fbsde(c, tree, grid, inst.xi)
    _, u, _, cost, history = ref.solve_coupled(c, tree, grid, inst.xi)
    assert got.iterations < len(history)
    for a, b in zip(got.control.values, u, strict=True):
        assert float(np.max(np.abs(a - b))) <= 1e-8 * (1.0 + float(np.max(np.abs(b))))
    # the returned states, leaves included, are those of the returned control
    want_x = ref.simulate_mft(c, tree, grid, got.control.values, inst.xi)
    assert all(_close(a, b) for a, b in zip(got.state.values, want_x, strict=True))
    assert got.cost == pytest.approx(cost, abs=1e-9 * max(1.0, abs(cost)))
