"""Block-wise expansion of per-prefix values onto the nodes.

The cost and every product of a per-prefix matrix with node rows expand
one block of nodes at a time.  They must give the whole-step results of
``helpers_expanded`` bit for bit at any block size, and the cost's
temporaries must stay a block in size.
"""

import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers_expanded import ref_cost_rows, ref_prefix_mv
from helpers_slopes import with_control_slopes

from cmvlq import decomposition, fbsde
from cmvlq.coeffs import _COEFF_FIELDS, Coefficient, bar_transform, breve_as_plain
from cmvlq.config import build_coefficients, initial_condition, parse_config
from cmvlq.decomposition import (
    _cost_rows, _mtv, _prefix_mtv, _prefix_mv, _Prefixed, _rollout, _rows_of,
)
from cmvlq.fbsde import assemble_optimal_control, solve_coupled_mv_fbsde
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import build_joint_tree
from cmvlq.oracle import cost_gradient, solve_qp_breve, solve_qp_exact

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# 1 and 7 split every step into many blocks (rounded up to the alignment);
# the largest is one block per step, the whole-step expansion itself
BLOCKS = [1, 7, 10**9]

# seeds with 4 to 6 steps, so the deeper steps span several blocks; by
# node dependence and by one or two atoms
SEEDS = [0, 4, 11, 12]
CASES = [(seed, nd, two) for seed in SEEDS for nd in (True, False) for two in (True, False)]


def _instance(seed, node_dependent, two_atoms):
    inst = random_instance(seed, node_dependent=node_dependent, random_initial=two_atoms)
    assert inst.grid().n_steps >= 4 and inst.coeffs.H.any()
    return inst


def _demo(name, n_steps):
    text = (DEMOS / f"{name}.cfg").read_text()
    cfg = parse_config(re.sub(r"^N = \d+$", f"N = {n_steps}", text, flags=re.M))
    c = build_coefficients(cfg)
    xi, probs = initial_condition(cfg)
    return c, build_joint_tree(c.grid(), probs), xi


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed,node_dependent,two_atoms", CASES)
def test_blockwise_cost_is_the_whole_step_cost_bit_for_bit(monkeypatch, block, seed, node_dependent,
                                                            two_atoms):
    monkeypatch.setattr(decomposition, "NODE_BLOCK", block)
    inst = _instance(seed, node_dependent, two_atoms)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    u = _rows_of(random_control(inst, tree, 3))
    table = _Prefixed(c, tree, grid)
    x, _, xbars = _rollout(table, u, inst.xi, means=True)
    for means in (None, xbars):
        assert _cost_rows(table, x, u, means) == ref_cost_rows(c, tree, grid, x, u, means)
    # the W0-only form, under the conditional-mean problem
    cb, common = bar_transform(c), tree.common
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal((c.d, common.n_nodes(k))) for k in range(grid.n_steps)]
    bar = _Prefixed(cb, common, grid)
    y, _, _ = _rollout(bar, v, inst.xi_mean()[None])
    assert _cost_rows(bar, y, v) == ref_cost_rows(cb, common, grid, y, v)


@pytest.mark.parametrize("block", BLOCKS)
def test_prefix_matrix_products_are_the_expanded_products_bit_for_bit(monkeypatch, block):
    monkeypatch.setattr(decomposition, "NODE_BLOCK", block)
    rng = np.random.default_rng(4)
    for n_atoms in (1, 3):
        tree = build_joint_tree(random_instance(0).grid(), np.full(n_atoms, 1.0 / n_atoms))
        for t in (tree, tree.common):
            for k in range(t.grid.n_steps + 1):
                for i, j in ((1, 1), (2, 3), (3, 2), (3, 3)):
                    mat = rng.standard_normal((i, j, 2**k))
                    rows = rng.standard_normal((j, t.n_nodes(k)))
                    assert np.array_equal(_prefix_mv(t, k, mat, rows), ref_prefix_mv(t, k, mat, rows))
                    shared = mat[..., 0]
                    assert np.array_equal(_prefix_mv(t, k, shared, rows), ref_prefix_mv(t, k, shared, rows))
                    # the transposed product; at one node einsum's sum order
                    # follows the memory layout of the expanded mat
                    rows = rng.standard_normal((i, t.n_nodes(k)))
                    assert np.array_equal(_prefix_mtv(t, k, mat, rows),
                                          ref_prefix_mv(t, k, mat, rows, _mtv))


def _solution_arrays(inst):
    """Every array and number the decomposed and the coupled solves return,
    and the cost gradient at a random control.
    """
    c, grid, tree, xi = inst.coeffs, inst.grid(), inst.tree(), inst.xi
    sol = assemble_optimal_control(c, tree, xi)
    coupled = solve_coupled_mv_fbsde(c, tree, grid, xi)
    processes = [sol.state, sol.control, coupled.state, coupled.control]
    processes += [getattr(sol.breve, name) for name in
                  ("state", "control", "costate", "costate_pred", "noise_load_w", "noise_load_w0")]
    processes += [getattr(sol.bar, name) for name in
                  ("state", "control", "costate", "costate_pred", "noise_load_w0")]
    arrays = [v for p in processes for v in p.values] + coupled.costate_pred
    arrays += cost_gradient(c, tree, grid, random_control(inst, tree, 5), xi)
    numbers = [sol.cost, sol.bar.cost, sol.breve.cost, sol.bar.backward_residual,
               sol.breve.backward_residual, coupled.cost, coupled.iterations]
    return arrays, numbers


@pytest.mark.parametrize("seed,node_dependent,two_atoms", CASES[::3])
def test_solves_match_the_expanded_products_bit_for_bit(monkeypatch, seed, node_dependent, two_atoms):
    # the roll-outs, the centered feedback and costate, the gradient
    # kernel's node matrices and the Picard map's R^-1, with every
    # per-prefix matrix expanded onto the whole step
    inst = _instance(seed, node_dependent, two_atoms)
    with monkeypatch.context() as m:
        for module in (decomposition, fbsde):
            m.setattr(module, "_prefix_mv", ref_prefix_mv)
        want = _solution_arrays(inst)
    for block in BLOCKS:
        monkeypatch.setattr(decomposition, "NODE_BLOCK", block)
        arrays, numbers = _solution_arrays(inst)
        assert numbers == want[1]
        assert len(arrays) == len(want[0])
        assert all(np.array_equal(a, b) for a, b in zip(arrays, want[0]))


def test_picard_evaluates_each_coefficient_once_per_step(monkeypatch):
    # R is read by the gradient kernel's step matrices and by the map's R^-1
    inst = with_control_slopes(random_instance(0))
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    calls = Counter()
    at_w0 = Coefficient.at_w0

    def counted(self, k, w0):
        calls[id(self), k] += 1
        return at_w0(self, k, w0)

    monkeypatch.setattr(Coefficient, "at_w0", counted)
    coupled = solve_coupled_mv_fbsde(c, tree, grid, inst.xi)
    assert coupled.iterations > 1
    assert max(calls.values()) == 1
    # every node-dependent coefficient the iteration reads, at every step
    for name in ("A", "F", "B", "b", "D", "D0", "Q", "zeta", "varpi", "R", "S"):
        assert not getattr(c, name).deterministic
        assert all(calls[id(getattr(c, name)), k] == 1 for k in range(grid.n_steps)), name


@pytest.mark.parametrize("centered", [False, True])
def test_qp_evaluates_each_coefficient_once_per_step(monkeypatch, centered):
    # every gradient of the conjugate gradients, the closing roll-out and
    # the cost read one table; solve_qp_exact made 693 evaluations when
    # each gradient evaluated its coefficients afresh
    c, tree, xi = _demo("node_dependent", 7)
    grid = c.grid()
    solved = breve_as_plain(c) if centered else c
    dependent = [name for name in _COEFF_FIELDS if not getattr(solved, name).deterministic]
    # A, b, D0 and Q in the full set; the centered one drops b and D0
    assert dependent == (["A", "Q"] if centered else ["A", "b", "D0", "Q"])
    calls = Counter()
    at_w0 = Coefficient.at_w0

    def counted(self, k, w0):
        calls[id(self), k] += 1
        return at_w0(self, k, w0)

    monkeypatch.setattr(Coefficient, "at_w0", counted)
    if centered:
        qp = solve_qp_breve(c, tree, grid, xi - tree.atom_probs @ xi)
    else:
        qp = solve_qp_exact(c, tree, grid, xi)
    assert len(qp.residual_history) > 2
    assert sum(calls.values()) == len(dependent) * grid.n_steps == (14 if centered else 28)
    assert calls == Counter({(id(getattr(c, name)), k): 1
                             for name in dependent for k in range(grid.n_steps)})


@pytest.mark.parametrize("name", ["mean_field", "node_dependent"])
def test_cost_memory_is_two_node_vectors_and_a_block(name):
    # the step's integrand and its node probabilities are one vector each;
    # at the leaves the whole-step deviation, its products and its H
    # E[x|F0] expansion each took one to two more
    c, tree, xi = _demo(name, 8)
    grid = c.grid()
    sol = assemble_optimal_control(c, tree, xi)
    x, u = _rows_of(sol.state), _rows_of(sol.control, grid.n_steps)
    leaves = tree.n_nodes(grid.n_steps)
    assert leaves == 131072
    tracemalloc.start()
    try:
        cost = _cost_rows(_Prefixed(c, tree, grid), x, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cost == sol.cost
    assert peak <= 3.5 * 8 * leaves
