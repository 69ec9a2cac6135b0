"""The (component, node) kernels against their index definitions and a
node-major reference.

The tree kernels keep each state or control component in one contiguous
row, node axis last.  Their properties are checked here against the
definitions by index (``w0_of_node``, ``atom_of_node``, child slots
4i..4i+3), and the roll-out, cost and Picard iteration built on them
against the node-major reference in ``helpers_node_major``.  The two sum
in different orders, so agreement is to a relative 1e-14, not bitwise.
"""

import helpers_node_major as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq.decomposition import eval_cost_mft, simulate_mft
from cmvlq.fbsde import solve_coupled_mv_fbsde
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import TimeGrid, build_joint_tree

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


# seeds whose Picard iteration converges, with and without node-dependent coefficients
CASES = [(seed, nd) for seed in (0, 1, 9, 12) for nd in (False, True)]


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


@pytest.mark.parametrize("seed,node_dependent", CASES)
def test_picard_matches_node_major_reference(seed, node_dependent):
    inst = random_instance(seed, node_dependent=node_dependent, max_steps=5)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    got = solve_coupled_mv_fbsde(c, tree, grid, inst.xi)
    x, u, pred, cost, history = ref.solve_coupled(c, tree, grid, inst.xi)
    assert got.iterations == len(history)
    assert all(_close(a, b) for a, b in zip(got.control.values, u))
    assert all(_close(a, b) for a, b in zip(got.state.values, x))
    assert all(_close(a, b) for a, b in zip(got.costate_pred, pred))
    assert _close(got.cost, cost)
