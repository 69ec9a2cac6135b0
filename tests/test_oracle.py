"""Certification of the brute-force reference solver.

The gradient routine is checked against central finite differences of
the cost evaluator (which is itself certified against plain-loop
enumeration), so the reference optimum inherits its trust from nothing
but the cost function and elementary calculus.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cmvlq.cli as cli
from cmvlq.coeffs import _COEFF_FIELDS, Coefficient, bar_transform, breve_as_plain
from cmvlq.config import build_coefficients, initial_condition, parse_config
from cmvlq.decomposition import eval_cost_mft, simulate_mft
from cmvlq.errors import CmvlqError, ConstraintViolationError, ConvergenceError
from cmvlq.fbsde import assemble_optimal_control, solve_bar_fbsde, solve_breve_fbsde
from cmvlq.instances import random_instance, random_control
from cmvlq.lattice import F_ADAPTED, TimeGrid, TreeProcess, build_joint_tree
from cmvlq.oracle import (
    _solve_quadratic,
    cost_gradient,
    solve_qp_bar,
    solve_qp_breve,
    solve_qp_exact,
)
from helpers_dense_qp import dense_qp_exact
from helpers_gradient import ref_cost_gradient
from helpers_slopes import CONTROL_SLOPES, VARPI_SLOPE, sloped_instance
from helpers_split import cond_mean, prefix_mean

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "mean_field.cfg"

FD_STEP = 1e-6
FD_RTOL = 1e-6


def _cost_of(inst, tree, grid, arrays):
    u = TreeProcess(tree, arrays, F_ADAPTED)
    x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
    return eval_cost_mft(inst.coeffs, x, u, tree, grid)


def _direction(inst, tree, grid, rng):
    return [
        rng.standard_normal((tree.n_nodes(k), inst.coeffs.d))
        for k in range(grid.n_steps)
    ]


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_gradient_matches_finite_differences(seed):
    inst = random_instance(seed, max_steps=3)
    grid, tree = inst.grid(), inst.tree()
    u0 = random_control(inst, tree, seed=100)
    grad = cost_gradient(inst.coeffs, tree, grid, u0, inst.xi)

    rng = np.random.default_rng([seed, 7])
    n_dirs = 20 if seed == 0 else 6
    for _ in range(n_dirs):
        v = _direction(inst, tree, grid, rng)
        plus = [a + FD_STEP * b for a, b in zip(u0.values, v)]
        minus = [a - FD_STEP * b for a, b in zip(u0.values, v)]
        fd = (_cost_of(inst, tree, grid, plus) - _cost_of(inst, tree, grid, minus)) / (
            2.0 * FD_STEP
        )
        exact = sum(float(np.sum(g * d)) for g, d in zip(grad, v))
        assert abs(fd - exact) <= FD_RTOL * max(1.0, abs(exact))


def test_gradient_is_exactly_affine():
    # quadratic cost: g(a + b) - g(a) must not depend on a
    inst = random_instance(3, max_steps=3)
    grid, tree = inst.grid(), inst.tree()
    rng = np.random.default_rng(11)
    a = _direction(inst, tree, grid, rng)
    b = _direction(inst, tree, grid, rng)

    def g(arrays):
        u = TreeProcess(tree, arrays, F_ADAPTED)
        return cost_gradient(inst.coeffs, tree, grid, u, inst.xi)

    lhs = g([x + y for x, y in zip(a, b)])
    rhs = [ga + gb - g0 for ga, gb, g0 in zip(g(a), g(b), g([0 * x for x in a]))]
    worst = max(float(np.max(np.abs(l - r))) for l, r in zip(lhs, rhs))
    scale = max(float(np.max(np.abs(l))) for l in lhs)
    assert worst <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("seed", [1, 8])
def test_qp_optimum_is_stationary_and_unbeatable(seed):
    inst = random_instance(seed, max_steps=4)
    grid, tree = inst.grid(), inst.tree()
    sol = solve_qp_exact(inst.coeffs, tree, grid, inst.xi)
    _, direct_cost = dense_qp_exact(inst.coeffs, tree, grid, inst.xi)
    assert abs(sol.cost - direct_cost) <= 1e-10 * max(1.0, abs(direct_cost))
    assert sol.gradient_sup <= 1e-9 * max(1.0, abs(sol.cost))
    rng = np.random.default_rng([seed, 23])
    for _ in range(10):
        v = _direction(inst, tree, grid, rng)
        for t in (1e-3, 0.3):
            bumped = [a + t * b for a, b in zip(sol.control.values, v)]
            assert _cost_of(inst, tree, grid, bumped) >= sol.cost - 1e-12 * max(
                1.0, abs(sol.cost)
            )


@pytest.mark.parametrize("seed", [0, 2, 6, 9, 14])
def test_reference_optimum_matches_structured_solver(seed):
    inst = random_instance(seed, max_steps=4)
    grid, tree = inst.grid(), inst.tree()
    qp = solve_qp_exact(inst.coeffs, tree, grid, inst.xi)
    mft = assemble_optimal_control(inst.coeffs, tree, inst.xi)
    for a, b in zip(qp.control.values, mft.control.values):
        assert np.max(np.abs(a - b)) <= 1e-8
    assert abs(qp.cost - mft.cost) / max(1.0, abs(qp.cost)) <= 1e-9
    again = eval_cost_mft(inst.coeffs, simulate_mft(inst.coeffs, tree, grid, qp.control, inst.xi),
                          qp.control, tree, grid)
    assert abs(again - qp.cost) <= 1e-12 * max(1.0, abs(qp.cost))


def test_comparison_keeps_a_nan_control_gap():
    # a NaN on the last step must reach the compare report's gap row, which refuses it
    inst = random_instance(1, max_steps=3)
    tree = inst.tree()
    assert inst.grid().n_steps >= 2
    mft = assemble_optimal_control(inst.coeffs, tree, inst.xi)
    values = [v.copy() for v in mft.control.values]
    values[-1][0, 0] = np.nan
    broken = TreeProcess(tree, values, F_ADAPTED)
    assert cli._sup_gap(mft.control, mft.control) == 0.0
    assert np.isnan(cli._sup_gap(mft.control, broken))
    with pytest.raises(CmvlqError, match="oracle_control_gap"):
        cli._residual("oracle_control_gap", cli._sup_gap(mft.control, broken), 1e-8)


@pytest.mark.parametrize("node_dependent", [False, True])
def test_solutions_hold_the_cost_of_their_control(node_dependent):
    # the compare report gaps the held costs; rolling each control out again
    # and costing it must give them bit for bit
    inst = random_instance(4, max_steps=4, node_dependent=node_dependent)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    assert grid.n_steps == 4 and c.deterministic != node_dependent
    for sol in (assemble_optimal_control(c, tree, inst.xi), solve_qp_exact(c, tree, grid, inst.xi)):
        x = simulate_mft(c, tree, grid, sol.control, inst.xi)
        assert eval_cost_mft(c, x, sol.control, tree, grid) == sol.cost


@pytest.mark.parametrize("seed", [2, 7, 13])
def test_restricted_problems_split_the_reference_cost(seed):
    inst = random_instance(seed, max_steps=4)
    grid, tree = inst.grid(), inst.tree()
    cb = bar_transform(inst.coeffs)

    full = solve_qp_exact(inst.coeffs, tree, grid, inst.xi)
    bar = solve_qp_bar(cb, tree, grid, inst.xi_mean())
    breve = solve_qp_breve(inst.coeffs, tree, grid, inst.xi_centered())

    scale = max(1.0, abs(full.cost))
    assert abs(bar.cost + breve.cost - full.cost) <= 1e-9 * scale

    # the restricted optima are the two components of the full optimum;
    # the bar one has one control per W0 prefix
    for k in range(grid.n_steps):
        prefix = prefix_mean(tree, k, full.control.values[k])
        ubar_full = cond_mean(tree, k, full.control.values[k])
        assert np.max(np.abs(bar.control.values[k] - prefix)) <= 1e-8
        centered = full.control.values[k] - ubar_full
        assert np.max(np.abs(breve.control.values[k] - centered)) <= 1e-8

    # restricted costs agree with the roll-out and cost of each sub-problem's set
    y = simulate_mft(cb, tree.common, grid, bar.control, inst.xi_mean())
    jb = eval_cost_mft(cb, y, bar.control, tree.common, grid)
    assert abs(jb - bar.cost) <= 1e-11 * scale
    cc = breve_as_plain(inst.coeffs)
    z = simulate_mft(cc, tree, grid, breve.control, inst.xi_centered())
    jbr = eval_cost_mft(cc, z, breve.control, tree, grid)
    assert abs(jbr - breve.cost) <= 1e-11 * scale


def test_centered_restriction_rejects_uncentered_initial():
    inst = random_instance(5, max_steps=3)
    with pytest.raises(ConstraintViolationError, match=r"E\[xi_breve\] = 0"):
        solve_qp_breve(inst.coeffs, inst.tree(), inst.grid(), inst.xi)


def test_conjugate_gradients_agrees_with_direct_solve():
    inst = random_instance(4, max_steps=3)
    grid, tree = inst.grid(), inst.tree()
    direct_control, direct_cost = dense_qp_exact(inst.coeffs, tree, grid, inst.xi)
    cg = solve_qp_exact(inst.coeffs, tree, grid, inst.xi)
    assert abs(cg.cost - direct_cost) <= 1e-10 * max(1.0, abs(direct_cost))
    for k in range(grid.n_steps):
        assert np.max(np.abs(cg.control.values[k] - direct_control.values[k])) <= 1e-8


def test_conjugate_gradients_refuse_negative_curvature():
    # gradient 1 - v: a concave quadratic, lost at the first step
    with pytest.raises(ConvergenceError, match="curvature lost") as err:
        _solve_quadratic(lambda v: 1.0 - v, 3, label="concave")
    assert err.value.residual_history == pytest.approx([1.0])


def _unskippable(c):
    """c with every deterministic zero coefficient made W0-dependent with zero
    slopes: the same problem, but no term of it is skipped.
    """
    return replace(c, **{name: Coefficient(getattr(c, name).base, np.zeros_like(getattr(c, name).base))
                         for name in _COEFF_FIELDS if any(getattr(c, name).zero_at)})


@pytest.mark.parametrize("seed", [0, 4, 11, 12])
@pytest.mark.parametrize("node_dependent", [True, False, CONTROL_SLOPES, VARPI_SLOPE])
def test_gradient_skips_only_exact_zeros(seed, node_dependent):
    # the sub-problems' sets have zero H, F and (centered) zeta and varpi, whose
    # terms the gradient skips; the full problem has none of them
    inst = sloped_instance(seed, node_dependent, max_steps=5)
    grid, tree = inst.grid(), inst.tree()
    u = random_control(inst, tree, seed=31)
    for c, xi in (
        (inst.coeffs, inst.xi),
        (bar_transform(inst.coeffs), inst.xi_mean()),
        (breve_as_plain(inst.coeffs), inst.xi_centered()),
    ):
        got = cost_gradient(c, tree, grid, u, xi)
        # the reference sums each step's terms one by one, the kernel in one
        # stacked product: equal up to rounding
        want = ref_cost_gradient(c, tree, grid, u, xi)
        assert all(np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)) for g, w in zip(got, want))
        # the same kernel with nothing to skip gives the same bits
        full = cost_gradient(_unskippable(c), tree, grid, u, xi)
        assert all(np.array_equal(g, w) for g, w in zip(got, full))


def _demo_at_depth(n_steps):
    text = re.sub(r"^N = \d+$", f"N = {n_steps}", DEMO_CONFIG.read_text(), flags=re.M)
    cfg = parse_config(text)
    assert cfg.grid.n_steps == n_steps
    c = build_coefficients(cfg)
    xi, probs = initial_condition(cfg)
    grid = TimeGrid(n_steps, cfg.grid.horizon)
    return c, grid, build_joint_tree(grid, probs), xi, probs


def _gradient_evaluations(sol):
    # the initial gradient, one per iteration, and the final check
    return len(sol.residual_history) + 1


def test_oracle_iterations_do_not_grow_with_depth():
    counts = {"full": [], "bar": [], "breve": []}
    dims = {"full": [], "bar": [], "breve": []}
    for n_steps in (3, 4, 5, 6):
        c, grid, tree, xi, probs = _demo_at_depth(n_steps)
        xi_mean = probs @ xi
        sols = {
            "full": solve_qp_exact(c, tree, grid, xi),
            "bar": solve_qp_bar(bar_transform(c), tree, grid, xi_mean),
            "breve": solve_qp_breve(c, tree, grid, xi - xi_mean),
        }
        for name, sol in sols.items():
            assert sol.residual_history[-1] <= 1e-12
            counts[name].append(_gradient_evaluations(sol))
            dims[name].append(sol.dim)
    for name, per_depth in counts.items():
        assert max(per_depth) <= 30, (name, per_depth)
        assert per_depth[-1] <= per_depth[0] + 5, (name, per_depth)
    # the dimensions of the admissible classes at N = 3..6 (two atoms,
    # d = 1): every node, every W0 prefix, and the nodes less the prefixes
    assert dims == {
        "full": [42, 170, 682, 2730],
        "bar": [7, 15, 31, 63],
        "breve": [35, 155, 651, 2667],
    }


@pytest.mark.parametrize(
    ("seed", "atom_probs"),
    [pytest.param(seed, [0.3, 0.7], id=str(seed)) for seed in (1, 12, 14, 22)]
    + [pytest.param(seed, [1.0], id=f"{seed}-one_atom") for seed in (1, 12, 14, 22)],
)
def test_preconditioned_solves_on_random_coefficients(seed, atom_probs):
    # node-dependent coefficients, unequal atom probabilities or one atom
    inst = random_instance(seed, max_steps=5)
    inst = replace(inst, xi=inst.xi[: len(atom_probs)], atom_probs=np.array(atom_probs))
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    cb = bar_transform(c)

    full = solve_qp_exact(c, tree, grid, inst.xi)
    direct_control, direct_cost = dense_qp_exact(c, tree, grid, inst.xi)
    assert abs(full.cost - direct_cost) <= 1e-10 * max(1.0, abs(direct_cost))
    for k in range(grid.n_steps):
        assert np.max(np.abs(full.control.values[k] - direct_control.values[k])) <= 1e-8

    bar = solve_qp_bar(cb, tree, grid, inst.xi_mean())
    bar_cost = solve_bar_fbsde(cb, tree, grid, inst.xi_mean()).cost
    assert abs(bar.cost - bar_cost) <= 1e-10 * max(1.0, abs(bar_cost))
    breve = solve_qp_breve(c, tree, grid, inst.xi_centered())
    breve_cost = solve_breve_fbsde(c, tree, grid, inst.xi_centered()).cost
    assert abs(breve.cost - breve_cost) <= 1e-10 * max(1.0, abs(breve_cost))

    for sol in (full, bar, breve):
        assert sol.gradient_sup <= 1e-9 * max(1.0, abs(sol.cost))
    # the centered class has n_nodes(k) - 2^k free nodes per step: none at
    # step 0 with one atom, where the projection leaves a zero control
    assert breve.dim == c.d * sum(tree.n_nodes(k) - 2**k for k in range(grid.n_steps))
    if len(atom_probs) == 1:
        assert not breve.control.values[0].any()
    # Both restrictions are the full problem on a subspace that the metric
    # embeds isometrically (a prefix control expands onto its nodes, the
    # centered class is the image of the metric-orthogonal projection
    # u - E[u|F0]), so their preconditioned spectra lie inside the full
    # one's; a wrong metric shows as more iterations than the full problem
    # needs.
    assert len(bar.residual_history) <= len(full.residual_history)
    assert len(breve.residual_history) <= len(full.residual_history)
