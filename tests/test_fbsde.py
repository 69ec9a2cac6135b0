import dataclasses
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers_node_major import coeff_nodes
from helpers_split import prefix_mean, ref_breve_closed_loop, ref_simulate_bar, rel_gap

from cmvlq import fbsde
from cmvlq.coeffs import bar_transform, breve_as_plain, make_coefficients
from cmvlq.config import build_coefficients, initial_condition, parse_config
from cmvlq.decomposition import _Prefixed, check_decomposition, eval_cost_mft, simulate_mft
from cmvlq.errors import CmvlqError, ConvergenceError, DimensionError
from cmvlq.fbsde import (
    SubSolution,
    _adjoint,
    assemble_optimal_control,
    build_ode_policy,
    solve_bar_fbsde,
    solve_breve_fbsde,
    solve_coupled_mv_fbsde,
    verify_stationarity,
)
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import F0_ADAPTED, F_ADAPTED, TimeGrid, TreeProcess, build_joint_tree
from cmvlq.oracle import solve_qp_bar, solve_qp_exact
from cmvlq.riccati import solve_l, solve_pi

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _demo(name, n_steps):
    """A demo config's coefficients at n_steps, with its tree and initial atoms."""
    text = (DEMOS / f"{name}.cfg").read_text()
    cfg = parse_config(re.sub(r"^N = \d+$", f"N = {n_steps}", text, flags=re.M))
    c = build_coefficients(cfg)
    xi, probs = initial_condition(cfg)
    assert c.n_steps == n_steps
    return c, build_joint_tree(c.grid(), probs), xi


def _max_ce(proc, tree):
    worst = 0.0
    for k, v in enumerate(proc.values):
        prefix = prefix_mean(tree, k, v)
        scale = 1.0 + float(np.max(np.abs(v)))
        worst = max(worst, float(np.max(np.abs(prefix))) / scale)
    return worst


def _martingale_moment_residuals(tree, k, nxt, pred, lw, lw0):
    rep = lambda a: np.repeat(a, 4, axis=0)
    r = (
        nxt
        - rep(pred)
        - rep(lw) * tree.last_dw[k + 1][:, None]
        - rep(lw0) * tree.last_dw0[k + 1][:, None]
    )
    return (
        float(np.max(np.abs(tree.child_mean_rows(k, r.T)))),
        float(np.max(np.abs(tree.child_increment_mean_rows(k, r.T, "w")))),
        float(np.max(np.abs(tree.child_increment_mean_rows(k, r.T, "w0")))),
    )


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_centered_adjoints_are_exact(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    grid = inst.grid()
    tree = inst.tree()
    pi = solve_pi(c)
    sol = solve_breve_fbsde(c, tree, grid, inst.xi_centered(), pi=pi)

    assert sol.backward_residual < 1e-12
    rep = verify_stationarity(sol)
    assert rep.max_residual < 1e-12

    # both the optimal control and state condition to zero on the tree
    assert _max_ce(sol.control, tree) < 1e-13
    assert _max_ce(sol.state, tree) < 1e-13

    sq = grid.sqrt_dt
    for k in range(grid.n_steps):
        nxt = sol.costate.values[k + 1]
        m0, mw, mw0 = _martingale_moment_residuals(
            tree, k, nxt, sol.costate_pred.values[k],
            sol.noise_load_w.values[k], sol.noise_load_w0.values[k],
        )
        scale = 1.0 + float(np.max(np.abs(nxt)))
        assert max(m0, mw, mw0) < 1e-12 * scale

        # loading on the idiosyncratic noise is exactly (mean next
        # quadratic coefficient) times the diffusion vector
        hat = 0.5 * (pi.values[k + 1][0::2] + pi.values[k + 1][1::2])
        hat_nodes = hat[tree.w0_of_node[k]]
        D = coeff_nodes(c.D, tree, k)
        expected_w = np.einsum("nij,nj->ni", hat_nodes, D)
        assert np.max(np.abs(sol.noise_load_w.values[k] - expected_w)) < 1e-12 * scale

        # loading on the common noise is the quadratic coefficient's own
        # increment slope times the predicted state
        psi = ((pi.values[k + 1][0::2] - pi.values[k + 1][1::2]) / (2.0 * sq))[
            tree.w0_of_node[k]
        ]
        zhat = tree.child_mean_rows(k, sol.state.values[k + 1].T).T
        expected_w0 = np.einsum("nij,nj->ni", psi, zhat)
        assert np.max(np.abs(sol.noise_load_w0.values[k] - expected_w0)) < 1e-12 * scale


@pytest.mark.parametrize("seed", [3, 11, 28])
def test_mean_adjoints_are_exact(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    cb = bar_transform(c)
    grid = inst.grid()
    tree = inst.tree()
    ll = solve_l(cb)
    sol = solve_bar_fbsde(cb, tree, grid, inst.xi_mean(), l_solution=ll)

    assert sol.backward_residual < 1e-12
    rep = verify_stationarity(sol)
    assert rep.max_residual < 1e-12

    # the bar processes live on tree.common, where node id = W0 prefix id
    common = tree.common
    sq = grid.sqrt_dt
    for k in range(grid.n_steps):
        nxt = sol.costate.values[k + 1]
        scale = 1.0 + float(np.max(np.abs(nxt)))
        # no idiosyncratic loading in the conditional-mean adjoint
        lw = tree.child_increment_mean_rows(k, tree.expand_rows(k + 1, nxt.T), "w").T
        assert np.max(np.abs(lw)) < 1e-12 * scale

        Lhat = 0.5 * (ll.values[k + 1][0::2] + ll.values[k + 1][1::2])
        psiL = (ll.values[k + 1][0::2] - ll.values[k + 1][1::2]) / (2.0 * sq)
        psig = (ll.offset[k + 1][0::2] - ll.offset[k + 1][1::2]) / (2.0 * sq)
        yhat = common.child_mean_rows(k, sol.state.values[k + 1].T).T
        D0 = cb.D0.at_w0(k, tree.cum_w0_prefix[k])
        expected = (
            np.einsum("pij,pj->pi", psiL, yhat)
            + np.einsum("pij,pj->pi", Lhat, D0)
            + psig
        )
        got = common.child_increment_mean_rows(k, nxt.T, "w0").T
        assert np.max(np.abs(got - expected)) < 1e-12 * scale


def _same(process, rows):
    return all(np.array_equal(a, b) for a, b in zip(process.values, rows, strict=True))


@pytest.mark.parametrize("node_dependent", [False, True])
def test_states_are_rolled_out_from_the_stored_controls(node_dependent):
    # no solution stores a state: each read rolls it out under the control,
    # bit for bit the solver's own roll-out
    inst = random_instance(4, node_dependent=node_dependent)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    assert grid.n_steps >= 4 and tree.n_atoms > 1 and c.H.any()
    xi = inst.xi.copy()
    sol = assemble_optimal_control(c, tree, xi)
    coupled = solve_coupled_mv_fbsde(c, tree, grid, xi)
    xi += 1.0  # the solutions keep their own initial atoms
    for s in (sol, sol.bar, sol.breve, coupled):
        assert "state" not in {f.name for f in dataclasses.fields(s)}

    pi = solve_pi(c)
    centered, _ = ref_breve_closed_loop(c, tree, grid, inst.xi_centered(), pi)
    assert _same(sol.breve.state, [z.T for z in centered])
    mean = ref_simulate_bar(bar_transform(c), tree.common, grid, sol.bar.control, inst.xi_mean())
    assert _same(sol.bar.state, mean)
    for s in (sol, coupled):
        assert _same(s.state, simulate_mft(c, tree, grid, s.control, inst.xi).values)
        # the cost was taken on the solver's roll-out
        assert eval_cost_mft(c, s.state, s.control, tree, grid) == s.cost

    # a replaced control reads its own state
    other = random_control(inst, tree, seed=5)
    moved = dataclasses.replace(sol, control=other)
    assert _same(moved.state, simulate_mft(c, tree, grid, other, inst.xi).values)


def test_solutions_hold_less_than_one_state():
    # what the two solvers leave allocated stays below one full state
    # process; each solution held at least one such state (the assembled
    # one two, its own and the centered one) when they stored their states
    c, tree, xi = _demo("mean_field", 6)
    grid = c.grid()
    state_bytes = c.n * sum(tree.n_nodes(k) for k in range(grid.n_steps + 1)) * 8
    assemble_optimal_control(c, tree, xi)  # the tree's cached views, outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sol = assemble_optimal_control(c, tree, xi)
        assembled = tracemalloc.get_traced_memory()[0]
        coupled = solve_coupled_mv_fbsde(c, tree, grid, xi)
        picard = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coupled.iterations > 1 and sol.cost > 0.0
    assert assembled - start < state_bytes
    assert picard - assembled < state_bytes


def test_bar_processes_have_one_node_per_prefix():
    inst = random_instance(3)
    cb = bar_transform(inst.coeffs)
    grid = inst.grid()
    tree = inst.tree()
    assert tree.n_atoms > 1
    sol = solve_bar_fbsde(cb, tree, grid, inst.xi_mean())
    # stored fields and the ones formed on read alike
    names = ("state", "control", "costate", "costate_pred", "noise_load_w0")
    processes = [getattr(sol, name) for name in names]
    assert all(isinstance(p, TreeProcess) for p in processes)
    stored = {f.name for f in dataclasses.fields(sol) if isinstance(getattr(sol, f.name), TreeProcess)}
    assert stored <= set(names)
    for p in processes + [solve_qp_bar(cb, tree, grid, inst.xi_mean()).control]:
        assert p.tree is tree.common
        assert p.adapted == F0_ADAPTED
        assert [v.shape[0] for v in p.values] == [2**k for k in range(len(p.values))]


@pytest.mark.parametrize("seed", [1, 9, 40])
def test_assembled_control_is_globally_optimal(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    grid = inst.grid()
    tree = inst.tree()
    sol = assemble_optimal_control(c, tree, inst.xi)

    assert sol.split_residual < 1e-11 * max(1.0, abs(sol.cost))
    rep = verify_stationarity(sol)
    assert rep.max_residual < 1e-12
    # each part is checked on the set and the tree it was solved on, and
    # the assembled check is their per-step maximum
    bar_rep, breve_rep = verify_stationarity(sol.bar), verify_stationarity(sol.breve)
    assert rep.per_step == np.maximum(bar_rep.per_step, breve_rep.per_step).tolist()
    assert bar_rep.max_residual < 1e-12
    dec = check_decomposition(c, sol.state, sol.control, tree, grid)
    assert dec.relative_residual < 1e-11

    # state splits into exactly the two partial states, and the control
    # is their controls' sum bit for bit
    for k in range(grid.n_steps + 1):
        both = tree.expand_rows(k, sol.bar.state.values[k].T).T + sol.breve.state.values[k]
        scale = 1.0 + np.max(np.abs(sol.state.values[k]))
        assert np.max(np.abs(sol.state.values[k] - both)) < 1e-11 * scale
    for k in range(grid.n_steps):
        both = tree.expand_rows(k, sol.bar.control.values[k].T).T + sol.breve.control.values[k]
        assert np.array_equal(sol.control.values[k], both)

    rng = np.random.default_rng(seed + 5000)
    for _ in range(6):
        delta = [
            rng.standard_normal((tree.n_nodes(k), c.d)) for k in range(grid.n_steps)
        ]
        u2 = TreeProcess(
            tree,
            [a + 0.3 * d for a, d in zip(sol.control.values, delta)],
            F_ADAPTED,
        )
        x2 = simulate_mft(c, tree, grid, u2, inst.xi)
        j2 = eval_cost_mft(c, x2, u2, tree, grid)
        assert j2 >= sol.cost - 1e-11 * max(1.0, abs(sol.cost))


def test_cost_is_parabolic_around_the_optimum():
    inst = random_instance(14)
    c = inst.coeffs
    grid = inst.grid()
    tree = inst.tree()
    sol = assemble_optimal_control(c, tree, inst.xi)
    delta = random_control(inst, tree, 77)

    def cost_at(mu):
        u2 = TreeProcess(
            tree,
            [a + mu * d for a, d in zip(sol.control.values, delta.values)],
            F_ADAPTED,
        )
        x2 = simulate_mft(c, tree, grid, u2, inst.xi)
        return eval_cost_mft(c, x2, u2, tree, grid)

    j0 = sol.cost
    j1 = cost_at(1.0)
    scale = max(1.0, abs(j0), abs(j1))
    # pure parabola with vertex at the optimum: no linear term survives
    assert cost_at(0.5) - j0 == pytest.approx(0.25 * (j1 - j0), abs=1e-10 * scale)
    assert cost_at(-1.0) - j0 == pytest.approx(j1 - j0, abs=1e-10 * scale)


# seed 4 (N=6) diverges under damped Picard at damping 0.5; the
# Anderson-mixed iteration converges on it
@pytest.mark.parametrize("seed", [0, 16, 27, 17, 4])
def test_coupled_fixed_point_recovers_the_optimum(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    grid = inst.grid()
    tree = inst.tree()
    direct = assemble_optimal_control(c, tree, inst.xi)
    coupled = solve_coupled_mv_fbsde(c, tree, grid, inst.xi)

    assert coupled.iterations <= 200
    for k in range(grid.n_steps):
        scale = 1.0 + np.max(np.abs(direct.control.values[k]))
        diff = np.max(np.abs(coupled.control.values[k] - direct.control.values[k]))
        assert diff < 1e-8 * scale
    assert coupled.cost == pytest.approx(direct.cost, abs=1e-9 * max(1.0, abs(direct.cost)))


def test_coupled_iteration_reports_failure():
    inst = random_instance(4)
    grid = inst.grid()
    tree = inst.tree()
    with pytest.raises(ConvergenceError) as err:
        solve_coupled_mv_fbsde(inst.coeffs, tree, grid, inst.xi, max_iter=2)
    assert len(err.value.residual_history) == 2


def test_coupled_iteration_refuses_a_non_finite_change(monkeypatch):
    # max() dropped the NaN change: the iteration "converged" after one sweep
    inst = random_instance(0, max_steps=3)
    sweep = fbsde._picard_sweep

    def nan_change(*args):
        products, changes = sweep(*args)
        changes[-1] = np.nan
        return products, changes

    monkeypatch.setattr(fbsde, "_picard_sweep", nan_change)
    last = inst.grid().n_steps - 1
    with pytest.raises(
        CmvlqError, match=rf"non-finite control change at step {last} in map evaluation 1$"
    ) as err:
        solve_coupled_mv_fbsde(inst.coeffs, inst.tree(), inst.grid(), inst.xi)
    # a numerical failure, not a solver that ran out of iterations
    assert not isinstance(err.value, ConvergenceError)


def test_coupled_iteration_refuses_a_non_finite_initial_state():
    # refused before any arithmetic, so no NumPy warning comes first
    inst = random_instance(0, max_steps=3)
    xi = inst.xi.copy()
    xi[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CmvlqError, match=r"initial state xi has a non-finite entry$"):
            solve_coupled_mv_fbsde(inst.coeffs, inst.tree(), inst.grid(), xi)


def test_backward_residual_keeps_a_nan():
    inst = random_instance(1, max_steps=3)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    sol = solve_breve_fbsde(c, tree, grid, inst.xi_centered())
    costate = [v.T.copy() for v in sol.costate.values]
    costate[0][0, 0] = np.nan
    rows = lambda p: [v.T for v in p.values]
    fields = _adjoint(_Prefixed(breve_as_plain(c), tree, grid), rows(sol.state), rows(sol.control),
                      costate)
    assert np.isnan(fields["backward_residual"])


@pytest.mark.parametrize("wrong", ["horizon", "n_steps"])
def test_a_grid_that_is_not_the_coefficients_is_refused(wrong):
    # unrefused, a doubled horizon is solved with the wrong time step: the
    # centered solution reports cost 0.8777, its re-rolled state costs 0.6743
    inst = random_instance(1, max_steps=4)
    c, tree, grid = inst.coeffs, inst.tree(), inst.grid()
    other = (TimeGrid(grid.n_steps, 2.0 * grid.horizon) if wrong == "horizon"
             else TimeGrid(grid.n_steps + 1, grid.horizon))
    runs = [
        (solve_breve_fbsde, inst.xi_centered()),
        (solve_bar_fbsde, inst.xi_mean()),
        (solve_coupled_mv_fbsde, inst.xi),
        (solve_qp_exact, inst.xi),
    ]
    for solve, xi in runs:
        with pytest.raises(DimensionError, match="^grid: "):
            solve(c, tree, other, xi)
    # the tree's grid and a given value function's must agree too
    with pytest.raises(DimensionError, match="^tree: "):
        solve_breve_fbsde(c, build_joint_tree(other, inst.atom_probs), grid, inst.xi_centered())
    moved = dataclasses.replace(c, horizon=2.0 * c.horizon)
    with pytest.raises(DimensionError, match="^value: "):
        solve_breve_fbsde(c, tree, grid, inst.xi_centered(), pi=solve_pi(moved))
    with pytest.raises(DimensionError, match="^value: "):
        solve_bar_fbsde(c, tree, grid, inst.xi_mean(), l_solution=solve_l(moved))


def test_both_sub_problems_share_one_solution_type():
    inst = random_instance(2, max_steps=4)
    tree = inst.tree()
    sol = assemble_optimal_control(inst.coeffs, tree, inst.xi)
    assert type(sol.bar) is SubSolution and type(sol.breve) is SubSolution
    assert sol.bar.control.tree is tree.common and sol.breve.control.tree is tree
    # tree.common carries no idiosyncratic noise to load
    with pytest.raises(DimensionError, match="no idiosyncratic noise"):
        sol.bar.noise_load_w
    assert sol.bar.noise_load_w0.tree is tree.common
    with pytest.raises(TypeError, match="unsupported solution type"):
        verify_stationarity(sol.control)


def test_stationarity_keeps_a_nan():
    inst = random_instance(1, max_steps=3)
    c, grid, tree = inst.coeffs, inst.grid(), inst.tree()
    assert grid.n_steps >= 2
    sol = assemble_optimal_control(c, tree, inst.xi)
    values = [v.copy() for v in sol.breve.control.values]
    values[-1][0, 0] = np.nan
    breve = dataclasses.replace(sol.breve, control=TreeProcess(tree, values, F_ADAPTED))
    for broken in (breve, dataclasses.replace(sol, breve=breve)):
        report = verify_stationarity(broken)
        assert np.isnan(report.max_residual) and np.isnan(report.per_step[-1])
        assert not report.passed


@pytest.mark.parametrize("max_iter", [0, -1])
def test_coupled_iteration_refuses_no_map_evaluations(max_iter):
    inst = random_instance(0)
    with pytest.raises(ValueError, match="max_iter"):
        solve_coupled_mv_fbsde(inst.coeffs, inst.tree(), inst.grid(), inst.xi, max_iter=max_iter)


def test_coupled_iteration_is_accelerated_on_the_demo_coefficients():
    # damped Picard at damping 0.5 needs 29-30 map evaluations here
    for n_steps in (3, 4, 5, 6):
        c, tree, xi = _demo("mean_field", n_steps)
        grid = c.grid()
        coupled = solve_coupled_mv_fbsde(c, tree, grid, xi)
        assert coupled.iterations <= 20, n_steps
        assert len(coupled.residual_history) == coupled.iterations
        direct = assemble_optimal_control(c, tree, xi)
        for a, b in zip(coupled.control.values, direct.control.values):
            assert float(np.max(np.abs(a - b))) <= 1e-8 * (1.0 + float(np.max(np.abs(b))))


def test_ode_policy_tables_match_per_step_solves():
    rng = np.random.default_rng(5)
    N, n, d = 3, 2, 2
    R = np.stack([np.eye(d) + 0.4 * k * np.ones((d, d)) for k in range(N)])
    c = make_coefficients(
        n, d, horizon=0.7, n_steps=N, A=rng.uniform(-1, 1, (N, n, n)),
        B=rng.uniform(-1, 1, (N, n, d)), S=0.1 * rng.uniform(-1, 1, (N, n, d)),
        b=rng.uniform(-1, 1, (N, n)), varpi=rng.uniform(-1, 1, (N, d)),
        Q=np.eye(n), R=R, QT=np.eye(n),
    )
    pol = build_ode_policy(c, dt_target=0.01)
    cb = bar_transform(c)
    for j in range(len(pol.times)):
        k = min(j // pol.n_sub, N - 1)
        R, B = c.R.at_step(k), c.B.at_step(k)
        gc = np.linalg.solve(R, c.S.at_step(k).T + B.T @ pol.pi.values[j])
        gm = np.linalg.solve(R, cb.S.at_step(k).T + B.T @ pol.l_solution.values[j])
        sh = np.linalg.solve(R, B.T @ pol.l_solution.offset[j] + c.varpi.at_step(k))
        assert np.array_equal(pol.gain_centered[j], gc)
        # the mean gain and the shift come from one solve on the augmented table
        assert rel_gap(pol.gain_mean[j], gm) <= 1e-13
        assert rel_gap(pol.shift[j], sh) <= 1e-13


def test_ode_policy_gains_at_known_instance():
    # tanh instance: centered gain at time zero is tanh(T)
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, B=1.0, Q=1.0, R=1.0)
    pol = build_ode_policy(c)
    assert pol.gain_centered[0][0, 0] == pytest.approx(np.tanh(1.0), abs=1e-8)
    assert pol.gain_mean[0][0, 0] == pytest.approx(np.tanh(1.0), abs=1e-8)
    assert np.max(np.abs(pol.shift)) < 1e-14
    # terminal gain uses the terminal weight directly (zero here)
    assert abs(pol.gain_centered[-1][0, 0]) < 1e-14
