"""Acceptance gate: ten end-to-end criteria, one test each.

Every tolerance here is part of the package contract.  The random
suites are seeded, so each criterion is a deterministic pass/fail line.
"""

import math
import time
from functools import lru_cache

import numpy as np
from helpers_sampled_margin import estimate_convexity_margin
from helpers_split import prefix_mean

from cmvlq.cli import main
from cmvlq.coeffs import bar_transform, make_coefficients
from cmvlq.decomposition import (
    check_decomposition,
    eval_cost_mft,
    lemma_identities,
    simulate_mft,
)
from cmvlq.fbsde import (
    assemble_optimal_control,
    solve_coupled_mv_fbsde,
    verify_stationarity,
)
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import F_ADAPTED, TreeProcess
from cmvlq.oracle import (
    cost_gradient,
    solve_qp_bar,
    solve_qp_breve,
    solve_qp_exact,
)
from cmvlq.riccati import convexity_margins, solve_l, solve_pi
from cmvlq import sim


@lru_cache(maxsize=1)
def _mixed_control_suite():
    """50 small instances with arbitrary (non-optimal) admissible controls."""
    out = []
    for seed in range(50):
        inst = random_instance(seed)
        tree, grid = inst.tree(), inst.grid()
        u = random_control(inst, tree, 71)
        x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
        out.append((inst, tree, grid, x, u))
    return out


@lru_cache(maxsize=1)
def _solved_suite():
    """25 short-horizon instances solved both ways: decomposition and QP."""
    out = []
    for seed in range(25):
        inst = random_instance(seed, max_steps=4)
        tree, grid = inst.tree(), inst.grid()
        sol = assemble_optimal_control(inst.coeffs, tree, inst.xi)
        qp = solve_qp_exact(inst.coeffs, tree, grid, inst.xi)
        out.append((inst, tree, grid, sol, qp))
    return out


def _foc_units_residual(c, tree, grid, u, xi) -> float:
    """Sup-norm first-order-condition residual of an arbitrary control."""
    worst = 0.0
    for k, g in enumerate(cost_gradient(c, tree, grid, u, xi)):
        weights = tree.probs(k)[:, None] * grid.dt
        worst = max(worst, float(np.max(np.abs(g / weights))))
    return worst


def test_criterion_01_cost_splits_into_mean_and_centered_parts():
    start = time.perf_counter()
    for inst, tree, grid, x, u in _mixed_control_suite():
        rep = check_decomposition(inst.coeffs, x, u, tree, grid)
        assert rep.relative_residual <= 1e-10, f"seed {inst.seed}"
    assert time.perf_counter() - start < 10.0


def test_criterion_02_cross_term_identities_hold_for_any_control():
    for inst, tree, grid, x, u in _mixed_control_suite():
        ids = lemma_identities(inst.coeffs, x, u, tree, grid)
        assert set(ids) == {"i", "ii", "iii", "iv", "v", "v_terminal"}
        for key, (lhs, rhs) in ids.items():
            tol = 1e-10 * max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= tol, f"seed {inst.seed}, identity {key}"


def test_criterion_03_decomposed_optimum_matches_brute_force_solver():
    start = time.perf_counter()
    for inst, tree, grid, sol, qp in _solved_suite():
        # each control rolled out and costed afresh
        ja, jb = (eval_cost_mft(inst.coeffs, simulate_mft(inst.coeffs, tree, grid, s.control, inst.xi),
                                s.control, tree, grid) for s in (qp, sol))
        assert abs(ja - jb) / max(1.0, abs(ja)) <= 1e-9, f"seed {inst.seed}"
        gap = np.max([np.max(np.abs(a - b)) for a, b in zip(qp.control.values, sol.control.values)])
        assert gap <= 1e-8, f"seed {inst.seed}"
        qp_bar = solve_qp_bar(bar_transform(inst.coeffs), tree, grid, inst.xi_mean())
        qp_breve = solve_qp_breve(inst.coeffs, tree, grid, inst.xi_centered())
        assert abs(qp_bar.cost + qp_breve.cost - qp.cost) <= 1e-9, f"seed {inst.seed}"
    assert time.perf_counter() - start < 60.0


def test_criterion_04_centered_parts_have_zero_conditional_mean():
    for inst, tree, grid, sol, _ in _solved_suite():
        breve = sol.breve
        for k in range(grid.n_steps):
            prefix = prefix_mean(tree, k, breve.control.values[k])
            assert float(np.max(np.abs(prefix))) <= 1e-12, f"seed {inst.seed}, u step {k}"
        for k in range(grid.n_steps + 1):
            prefix = prefix_mean(tree, k, breve.state.values[k])
            assert float(np.max(np.abs(prefix))) <= 1e-12, f"seed {inst.seed}, x step {k}"


def test_criterion_05_first_order_conditions_tight_and_sensitive():
    for inst, tree, grid, sol, _ in _solved_suite():
        stat = verify_stationarity(sol)
        assert stat.max_residual <= 1e-10, f"seed {inst.seed}"

        rng = np.random.default_rng([inst.seed, 99])
        k0 = int(rng.integers(grid.n_steps))
        i0 = int(rng.integers(tree.n_nodes(k0)))
        c0 = int(rng.integers(inst.coeffs.d))
        values = [v.copy() for v in sol.control.values]
        values[k0][i0, c0] += 0.1
        bumped = TreeProcess(tree, values, F_ADAPTED)
        res = _foc_units_residual(inst.coeffs, tree, grid, bumped, inst.xi)
        assert res > 1e-3, f"seed {inst.seed}"


def test_criterion_06_scalar_riccati_solution_is_the_tanh_curve():
    start = time.perf_counter()
    c = make_coefficients(1, 1, 1.0, 1, B=1.0, Q=1.0, R=1.0, QT=0.0)
    pi = solve_pi(c, backend="ode", dt_target=1e-3)
    curve = np.tanh(1.0 - pi.times)
    assert float(np.max(np.abs(pi.values[:, 0, 0] - curve))) <= 1e-8
    # no interaction and no mean penalty: both backward equations coincide
    ll = solve_l(bar_transform(c), backend="ode", dt_target=1e-3)
    assert float(np.max(np.abs(ll.values - pi.values))) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_07_coupled_fixed_point_reproduces_decomposed_control():
    # seeds chosen to lie in the contraction regime at horizon <= 1
    seeds = (0, 1, 2, 3, 5, 6, 7, 8, 9, 10)
    start = time.perf_counter()
    for seed in seeds:
        inst = random_instance(seed, horizon_range=(0.5, 1.0))
        tree, grid = inst.tree(), inst.grid()
        assert grid.horizon <= 1.0
        coupled = solve_coupled_mv_fbsde(inst.coeffs, tree, grid, inst.xi)
        sol = assemble_optimal_control(inst.coeffs, tree, inst.xi)
        gap = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(coupled.control.values, sol.control.values)
        )
        assert gap <= 1e-6, f"seed {seed}"
        assert coupled.iterations <= 200, f"seed {seed}"
    assert time.perf_counter() - start < 30.0


def test_criterion_08_monte_carlo_confirms_centered_value_function():
    start = time.perf_counter()
    # noise-free centered dynamics: the quadratic-form identity is exact
    c = make_coefficients(1, 1, 1.0, 2, B=1.0, Q=1.0, R=1.0, QT=0.0)
    grid = c.grid()
    pi = solve_pi(c, backend="ode", dt_target=1e-3)
    xi_c = np.array([[1.2], [-0.8]])
    probs = np.array([0.4, 0.6])
    n_paths = 100_000

    vf = sim.check_value_function(
        c, pi, grid, n_paths, 2026, xi_centered=xi_c, atom_probs=probs
    )
    assert vf.noise_term == 0.0
    expected = 0.5 * 0.96 * math.tanh(1.0)
    assert abs(vf.predicted - expected) <= 1e-8 * expected
    assert vf.passed, f"z={vf.z_score:.2f}"

    n_fine = len(pi.times) - 1
    bell = sim.check_bellman(
        c, pi, grid, n_fine // 2, n_paths, 2027, xi_centered=xi_c, atom_probs=probs
    )
    assert bell.passed, f"z={bell.z_score:.2f}"

    dom = sim.check_policy_dominance(
        c, pi, grid, n_paths, 2028, xi_centered=xi_c, atom_probs=probs
    )
    assert dom.delta.mean > 0.0
    assert dom.passed, f"z={dom.z_score:.2f}"
    assert time.perf_counter() - start < 60.0


def test_criterion_09_optimum_is_a_global_minimum_with_positive_margins():
    pair = 0
    for inst, tree, grid, sol, _ in _solved_suite():
        c = inst.coeffs
        for j in range(4):
            rng = np.random.default_rng([inst.seed, 17, j])
            mu = float(rng.uniform(-1.0, 1.0))
            direction = random_control(inst, tree, 900 + j)
            values = [u + mu * a for u, a in zip(sol.control.values, direction.values)]
            bumped = TreeProcess(tree, values, F_ADAPTED)
            x = simulate_mft(c, tree, grid, bumped, inst.xi)
            cost = eval_cost_mft(c, x, bumped, tree, grid)
            assert cost - sol.cost >= -1e-10, f"seed {inst.seed}, pair {j}"
            pair += 1
        bar, breve = convexity_margins(c, tree.n_atoms)
        assert bar > 0.0 and breve > 0.0
        conv = estimate_convexity_margin(c, tree, grid, 4, seed=5)
        assert conv.margin_mft > 0.0 and conv.margin_bar > 0.0 and conv.margin_breve > 0.0
        assert conv.margin_mft >= min(conv.margin_bar, conv.margin_breve) - 1e-9
        # the sampled quotients are upper bounds on the exact margins
        assert conv.margin_bar >= bar - 1e-12 * bar and conv.margin_breve >= breve - 1e-12 * breve
    assert pair == 100


SUITE_CONFIG = """
[run]
mode = suite
out = {out}

[grid]
N = 3
T = 0.75

[coefficients]
n = 2
d = 1
A = -0.4 0.2 ; 0.1 -0.6
F = 0.15 0.0 ; 0.05 0.1
B = 1.0 ; 0.5
H = 0.4 0.1 ; 0.0 0.3
Q = 1.2 0.1 ; 0.1 0.9
R = 0.8
QT = 1.0 0.0 ; 0.0 1.4
S = 0.05 ; 0.02
b = 0.1 -0.05
D = 0.3 0.2
D0 = 0.25 0.1
zeta = 0.02 0.01
varpi = 0.03
xi_atoms = 0.9 -0.4 ; 0.2 0.6
xi_probs = 0.35 0.65

[simulation]
n_paths = 256
seed = 42
n_common_noise = 8
dt_target = 0.005
"""


def test_criterion_10_repeated_suite_runs_emit_identical_bytes(tmp_path):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(SUITE_CONFIG.format(out="unused"), encoding="utf-8")
    for out in ("a", "b"):
        status = main(
            ["suite", "--config", str(cfg_path), "--out", str(tmp_path / out)]
        )
        assert status == 0
    for name in ("suite_report.csv", "simulate_checkpoints.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
