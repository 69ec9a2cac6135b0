import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers_dense_qp import dense_margins
from helpers_node_major import coeff_nodes
from helpers_split import (
    cond_mean,
    ref_ode_sweep,
    ref_solve_l,
    ref_tree_offset,
    ref_tree_sweep,
    rel_gap,
)

from cmvlq.coeffs import as_coefficient, bar_transform, breve_as_plain, make_coefficients
from cmvlq.config import build_coefficients, initial_condition, parse_config
from cmvlq.decomposition import eval_cost_mft, simulate_mft
from cmvlq.errors import FiniteEscapeError, NotDeterministicError, SingularSystemError
from cmvlq.instances import random_instance
from cmvlq.lattice import (
    F_ADAPTED,
    TreeProcess,
    build_joint_tree,
    w0_prefix_cums,
    w0_prefix_levels,
)
from cmvlq.riccati import (
    _level_coefficients,
    _level_sweep,
    convexity_margins,
    solve_l,
    solve_pi,
)


def test_one_step_matches_hand_formula():
    # scalar, one step: the minimization is a plain parabola
    a, b1, s, q, r, qT, T = 0.3, 1.2, 0.4, 0.8, 2.0, 1.5, 0.7
    c = make_coefficients(
        1, 1, horizon=T, n_steps=1, A=a, B=b1, S=s, Q=q, R=r, QT=[[qT]]
    )
    sol = solve_pi(c)
    dt = T
    abar = 1.0 + a * dt
    bbar = b1 * dt
    G = r * dt + bbar * qT * bbar
    M = abar * qT * bbar + s * dt
    expected = abar * qT * abar + q * dt - M * M / G
    assert sol.values[0][0, 0, 0] == pytest.approx(expected, abs=1e-14)
    assert sol.gain_state[0][0, 0, 0] == pytest.approx(M / G, abs=1e-14)


def test_hyperbolic_tangent_closed_form():
    # A=0, B=R=Q=1, S=0, zero terminal weight: value slope is tanh(T - t)
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, B=1.0, Q=1.0, R=1.0)
    sol = solve_pi(c, backend="ode")
    exact = np.tanh(1.0 - sol.times)
    err = np.max(np.abs(sol.values[:, 0, 0] - exact))
    assert err < 1e-10


def test_bar_equals_breve_solution_without_interaction():
    # H = 0 and F = 0 leave the two problems with identical weights
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, B=1.0, Q=1.0, R=1.0)
    cb = bar_transform(c)
    pi = solve_pi(c, backend="ode")
    ll = solve_l(cb, backend="ode")
    assert np.max(np.abs(pi.values - ll.values)) < 1e-12


def test_offset_closed_form():
    # drift A=-1 cancelled by interaction F=1, unit source b: the linear
    # value term is 1 - sech(T - t)
    c = make_coefficients(
        1, 1, horizon=1.0, n_steps=5, A=-1.0, F=1.0, B=1.0, Q=1.0, R=1.0, b=1.0
    )
    cb = bar_transform(c)
    ll = solve_l(cb, backend="ode")
    exact = 1.0 - 1.0 / np.cosh(1.0 - ll.times)
    err = np.max(np.abs(ll.offset[:, 0] - exact))
    assert err < 1e-10
    assert ll.offset[0][0] == pytest.approx(1.0 - 1.0 / math.cosh(1.0), abs=1e-10)


def test_offset_linear_in_time_for_pure_source():
    # no dynamics and no weights except a unit state source: g(t) = T - t
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, R=1.0, zeta=1.0)
    cb = bar_transform(c)
    for backend in ("tree", "ode"):
        ll = solve_l(cb, backend=backend)
        if backend == "tree":
            for k in range(5):
                expected = 1.0 - k * 0.25
                assert np.max(np.abs(ll.offset[k] - expected)) < 1e-14
        else:
            assert np.max(np.abs(ll.offset[:, 0] - (1.0 - ll.times))) < 1e-12


@pytest.mark.parametrize("seed", [1, 8, 33])
def test_centered_feedback_attains_predicted_value(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    grid = inst.grid()
    tree = inst.tree()
    dt = grid.dt
    pi = solve_pi(c)
    xi_c = inst.xi_centered()

    z = xi_c[tree.atom_of_node[0]]
    alphas = []
    for k in range(grid.n_steps):
        gain = np.moveaxis(tree.expand_rows(k, np.moveaxis(pi.gain_state[k], 0, -1)), -1, 0)
        a = -np.einsum("nij,nj->ni", gain, z)
        alphas.append(a)
        A = coeff_nodes(c.A, tree, k)
        B = coeff_nodes(c.B, tree, k)
        D = coeff_nodes(c.D, tree, k)
        drift = np.einsum("nij,nj->ni", A, z) + np.einsum("nij,nj->ni", B, a)
        base = np.repeat(z + dt * drift, 4, axis=0)
        z = base + np.repeat(D, 4, axis=0) * tree.last_dw[k + 1][:, None]

    alpha = TreeProcess(tree, alphas, F_ADAPTED)
    cc = breve_as_plain(c)
    zsim = simulate_mft(cc, tree, grid, alpha, xi_c)
    assert np.allclose(zsim.values[-1], z, atol=1e-12, rtol=0.0)
    j = eval_cost_mft(cc, zsim, alpha, tree, grid)
    pred = 0.5 * float(
        np.einsum("a,ai,ij,aj->", inst.atom_probs, xi_c, pi.values[0][0], xi_c)
    ) + float(pi.constant[0][0])
    assert j == pytest.approx(pred, abs=1e-10 * max(1.0, abs(pred)))

    # no centered perturbation can do better
    rng = np.random.default_rng(seed + 1000)
    for _ in range(5):
        raw = [
            rng.standard_normal((tree.n_nodes(k), c.d)) for k in range(grid.n_steps)
        ]
        delta = [w - cond_mean(tree, k, w) for k, w in enumerate(raw)]
        a2 = TreeProcess(
            tree, [a + 0.2 * d for a, d in zip(alpha.values, delta)], F_ADAPTED
        )
        z2 = simulate_mft(cc, tree, grid, a2, xi_c)
        j2 = eval_cost_mft(cc, z2, a2, tree, grid)
        assert j2 >= j - 1e-11 * max(1.0, abs(j))


@pytest.mark.parametrize("node_dependent", [False, True])
@pytest.mark.parametrize("seed", [0, 6, 17])
def test_centered_value_has_no_affine_part(seed, node_dependent):
    # the centered set has no affine terms and no common noise on the
    # constant coordinate, so its value's linear part and its feedback's
    # shift are exact zeros, which the sub-problem solve skips
    pi = solve_pi(random_instance(seed, node_dependent=node_dependent).coeffs)
    assert not any(g.any() for g in pi.offset)
    assert not any(k.any() for k in pi.gain_const)


@pytest.mark.parametrize("seed", [2, 5, 21])
def test_mean_feedback_attains_predicted_value(seed):
    inst = random_instance(seed)
    c = inst.coeffs
    cb = bar_transform(c)
    grid = inst.grid()
    tree = inst.tree()
    dt = grid.dt
    sq = grid.sqrt_dt
    cums = w0_prefix_cums(grid)
    ll = solve_l(cb)
    ybar0 = inst.xi_mean()

    y = ybar0[None, :].copy()
    v_pref = []
    for k in range(grid.n_steps):
        v = -np.einsum("pij,pj->pi", ll.gain_state[k], y) - ll.gain_const[k]
        v_pref.append(v)
        Ab = cb.A.at_w0(k, cums[k])
        B = cb.B.at_w0(k, cums[k])
        b = cb.b.at_w0(k, cums[k])
        D0 = cb.D0.at_w0(k, cums[k])
        drift = (
            np.einsum("pij,pj->pi", Ab, y) + np.einsum("pij,pj->pi", B, v) + b
        )
        base = np.repeat(y + dt * drift, 2, axis=0)
        signs = np.tile([1.0, -1.0], y.shape[0])[:, None]
        y = base + np.repeat(D0, 2, axis=0) * signs * sq

    vproc = TreeProcess(tree.common, v_pref)
    ysim = simulate_mft(cb, tree.common, grid, vproc, ybar0)
    assert np.allclose(ysim.values[-1], y, atol=1e-12, rtol=0.0)
    j = eval_cost_mft(cb, ysim, vproc, tree.common, grid)
    pred = (
        0.5 * float(ybar0 @ ll.values[0][0] @ ybar0)
        + float(ll.offset[0][0] @ ybar0)
        + float(ll.constant[0][0])
    )
    assert j == pytest.approx(pred, abs=1e-10 * max(1.0, abs(pred)))

    rng = np.random.default_rng(seed + 2000)
    for _ in range(5):
        delta = [
            rng.standard_normal((tree.n_prefixes(k), c.d))
            for k in range(grid.n_steps)
        ]
        v2 = TreeProcess(tree.common, [v + 0.2 * dl for v, dl in zip(v_pref, delta)])
        y2 = simulate_mft(cb, tree.common, grid, v2, ybar0)
        j2 = eval_cost_mft(cb, y2, v2, tree.common, grid)
        assert j2 >= j - 1e-11 * max(1.0, abs(j))


def test_tree_approaches_ode_at_first_order():
    data = dict(
        A=np.array([[0.2, -0.3], [0.1, 0.0]]),
        B=np.array([[1.0], [0.5]]),
        S=np.array([[0.1], [0.0]]),
        Q=np.eye(2),
        R=[[1.0]],
        QT=0.5 * np.eye(2),
    )
    ref = solve_pi(
        make_coefficients(2, 1, horizon=1.0, n_steps=4, **data), backend="ode"
    ).at_time(0.0)
    errs = []
    for N in (4, 8):
        c = make_coefficients(2, 1, horizon=1.0, n_steps=N, **data)
        tree_sol = solve_pi(c)
        errs.append(np.max(np.abs(tree_sol.values[0][0] - ref)))
    ratio = errs[0] / errs[1]
    assert 1.5 < ratio < 2.7

    # the affine blocks of the conditional-mean value converge at the same order
    data.update(F=np.diag([0.1, 0.05]), b=[0.1, -0.05], D0=[0.25, 0.1], zeta=[0.02, 0.01],
                varpi=[0.03])
    ref = solve_l(make_coefficients(2, 1, horizon=1.0, n_steps=4, **data), backend="ode",
                  dt_target=1e-4)
    parts = ("values", "offset", "constant")
    errs = {part: [] for part in parts}
    for N in (8, 16):
        tree_sol = solve_l(make_coefficients(2, 1, horizon=1.0, n_steps=N, **data))
        for part in parts:
            errs[part].append(np.max(np.abs(getattr(tree_sol, part)[0][0] - getattr(ref, part)[0])))
    for part, (coarse, fine) in errs.items():
        assert 1.5 < coarse / fine < 2.7, part


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("sub_problem", ["pi", "l"])
@pytest.mark.parametrize("route", ["tree", "tree_node_dependent", "ode"])
def test_augmented_sweep_matches_the_three_recursions(route, sub_problem, seed):
    # one recursion on z = [x; 1] against separate Riccati, linear and
    # constant recursions; the ODE backend refuses node-dependent sets
    inst = random_instance(seed, node_dependent=route == "tree_node_dependent")
    p = breve_as_plain(inst.coeffs) if sub_problem == "pi" else bar_transform(inst.coeffs)
    solve = solve_pi if sub_problem == "pi" else solve_l
    if route == "ode":
        sol = solve(inst.coeffs, backend="ode", dt_target=0.01)
        refs = dict(zip(("values", "offset", "constant"), ref_ode_sweep(p, 0.01)))
    else:
        sol = solve(inst.coeffs)
        values, gains = ref_solve_l(p)
        offset, gain_const, constant = ref_tree_offset(p, values)
        refs = dict(values=values, gain_state=gains, offset=offset, gain_const=gain_const,
                    constant=constant)
    for part, ref in refs.items():
        assert rel_gap(getattr(sol, part), ref) <= 1e-13, part


def test_ode_backend_rejects_random_coefficients():
    c = make_coefficients(
        1, 1, horizon=1.0, n_steps=2, B=1.0, Q=1.0, R=1.0, A_slope=0.5
    )
    with pytest.raises(NotDeterministicError):
        solve_pi(c, backend="ode")
    with pytest.raises(NotDeterministicError):
        solve_l(bar_transform(c), backend="ode")


def test_ode_refusal_names_the_mean_drift_a_plus_f():
    # only F carries a common-noise loading: the L Riccati's drift is A+F,
    # and the message must not blame A, which is deterministic here
    c = make_coefficients(
        1, 1, horizon=1.0, n_steps=2, B=1.0, Q=1.0, R=1.0, F_slope=0.5
    )
    with pytest.raises(NotDeterministicError, match=r"carry one: A\+F$"):
        solve_l(bar_transform(c), backend="ode")
    solve_pi(c, backend="ode")  # Pi's drift is A alone


def test_ode_sweeps_refuse_node_dependent_noise_and_affine_terms():
    # each sweep reads the whole value function, so Pi refuses a
    # node-dependent D and L a node-dependent affine term
    c = make_coefficients(
        1, 1, horizon=1.0, n_steps=2, B=1.0, Q=1.0, R=1.0, D_slope=0.5, varpi_slope=0.5
    )
    with pytest.raises(NotDeterministicError, match=r"carry one: D$"):
        solve_pi(c, backend="ode")
    with pytest.raises(NotDeterministicError, match=r"carry one: varpi$"):
        solve_l(bar_transform(c), backend="ode")
    solve_pi(c)  # the tree backend takes both
    solve_l(bar_transform(c))


def test_singular_control_weight_is_refused():
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1)
    with pytest.raises(SingularSystemError):
        solve_pi(c)


def test_ode_singular_control_weight_is_refused():
    R = np.array([[[1.0]], [[0.0]]])
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, B=1.0, Q=1.0, R=R)
    with pytest.raises(SingularSystemError, match="control weight R is singular at step 1"):
        solve_pi(c, backend="ode")
    with pytest.raises(SingularSystemError, match="at step 1"):
        solve_l(bar_transform(c), backend="ode")


def test_ode_finite_escape_is_reported():
    # indefinite state weight over a long horizon: the Riccati solution
    # escapes to -infinity in finite backward time
    c = make_coefficients(1, 1, horizon=40.0, n_steps=4, A=0.2, B=1.0, Q=-1.0, R=1.0, QT=1.0)
    with np.errstate(all="ignore"), pytest.raises(FiniteEscapeError, match="blew up") as err:
        solve_pi(c, backend="ode")
    t_bad = float(str(err.value).split("at t=")[1].split()[0])
    assert 0.0 < t_bad < 40.0


def test_ode_finite_escape_warns_nothing():
    c = make_coefficients(1, 1, horizon=40.0, n_steps=4, A=0.2, B=1.0, Q=-1.0, R=1.0, QT=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiniteEscapeError, match="blew up"):
            solve_pi(c, backend="ode")


def test_unknown_backend_rejected():
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1, R=1.0)
    with pytest.raises(ValueError):
        solve_pi(c, backend="magic")


@pytest.mark.parametrize("seed", range(6))
def test_solutions_stay_positive_semidefinite(seed):
    inst = random_instance(seed + 300)
    pi = solve_pi(inst.coeffs)
    ll = solve_l(bar_transform(inst.coeffs))
    for sol in (pi, ll):
        for k, vals in enumerate(sol.values):
            ev = np.linalg.eigvalsh(vals)
            assert ev.min() > -1e-10, f"step {k}"
    assert min(float(ck.min()) for ck in pi.constant) > -1e-12


def test_fine_grid_lookup_consistency():
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, B=1.0, Q=1.0, R=1.0)
    sol = solve_pi(c, backend="ode", dt_target=0.01)
    for k in range(5):
        t = k * 0.25
        assert np.allclose(sol.at_time(t), sol.values[k * sol.n_sub], atol=1e-14)
    mid = 0.5 * (sol.values[3] + sol.values[4])
    assert np.allclose(sol.at_time(0.5 * (sol.times[3] + sol.times[4])), mid, atol=1e-12)


# -- exact convexity margins --------------------------------------------------

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _demo(name, n_steps):
    text = (DEMOS / name).read_text()
    cfg = parse_config(re.sub(r"(?m)^N = \d+$", f"N = {n_steps}", text))
    _, probs = initial_condition(cfg)
    c = build_coefficients(cfg)
    return c, build_joint_tree(c.grid(), probs)


def _instance(seed, atoms):
    inst = random_instance(seed, max_steps=4, random_initial=atoms == 2)
    return inst.coeffs, inst.tree()


MARGIN_CASES = (
    [pytest.param(lambda n=n: _demo("mean_field.cfg", n), id=f"demo-N{n}") for n in (2, 3, 4)]
    + [pytest.param(lambda: _demo("node_dependent.cfg", 4), id="node_dependent-N4")]
    + [pytest.param(lambda s=s, a=a: _instance(s, a), id=f"seed{s}-atoms{a}")
       for s in range(6) for a in (1, 2)]
)


@pytest.mark.parametrize("case", MARGIN_CASES)
def test_exact_margins_match_the_dense_hessian(case):
    # N = 2, 3, 4; one- and two-atom initial laws; node-dependent coefficients
    c, tree = case()
    full, bar, breve = dense_margins(c, tree, c.grid())
    got_bar, got_breve = convexity_margins(c, tree.n_atoms)
    assert got_bar == pytest.approx(bar, rel=1e-12, abs=0)
    assert got_breve == pytest.approx(breve, rel=1e-12, abs=0)  # inf == inf without centered controls
    assert min(got_bar, got_breve) == pytest.approx(full, rel=1e-12, abs=0)


def test_demo_margins_at_n8():
    # 8 sampled quotients at seed 5 read bar 0.835, breve 0.927 here
    c, tree = _demo("mean_field.cfg", 8)
    bar, breve = convexity_margins(c, tree.n_atoms)
    assert bar == pytest.approx(0.7979289823407, rel=1e-12)
    assert breve == pytest.approx(0.7978823464385, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("plain", [bar_transform, breve_as_plain])
@pytest.mark.parametrize("one_level", [False, True], ids=["levels", "one_level"])
def test_level_stack_at_zero_shift_is_the_prefix_table(one_level, plain, seed):
    # one level per step is exact for coefficients that do not depend on W0
    p = plain(random_instance(seed, max_steps=5, node_dependent=not one_level).coeffs)
    grid = p.grid()
    levels = _level_sweep(grid, _level_coefficients(p), np.pad(p.QT, (0, 1)), np.zeros(1))
    for got, want in zip(levels, ref_tree_sweep(p)):
        for k, level in enumerate(w0_prefix_levels(grid.n_steps)[: len(want)]):
            one = got[k][0][np.minimum(level, len(got[k][0]) - 1)]  # one level stands for all
            np.testing.assert_allclose(one, want[k], rtol=0, atol=1e-13 * np.abs(want[k]).max())


TREE_SOLVE_CASES = (
    [pytest.param(lambda s=s: random_instance(s).coeffs, id=f"seed{s}") for s in range(40)]
    + [pytest.param(lambda n=n: _demo("node_dependent.cfg", n)[0], id=f"node_dependent-N{n}")
       for n in (8, 10)]
)


@pytest.mark.parametrize("case", TREE_SOLVE_CASES)
def test_tree_solution_is_the_prefix_sweep(case):
    # the level tables read per prefix against the recursion on all 2**k prefixes
    c = case()
    for solve, plain in ((solve_pi, breve_as_plain), (solve_l, bar_transform)):
        sol = solve(c)
        table, feedback = ref_tree_sweep(plain(c))
        assert rel_gap(sol.table, table) <= 1e-13, solve.__name__
        assert rel_gap(sol.feedback, feedback) <= 1e-13, solve.__name__


def test_margin_search_brackets_a_non_convex_cost_from_below():
    # Q = -8 makes the centered cost non-convex; the bar transform stays convex
    c, tree = _demo("mean_field.cfg", 3)
    c = replace(c, Q=as_coefficient(np.array([[-8.0, 0.1], [0.1, 0.9]]), c.n_steps, (2, 2), "Q"))
    full, _, breve = dense_margins(c, tree, c.grid())
    got_bar, got_breve = convexity_margins(c, tree.n_atoms)
    assert got_breve < 0.0 < got_bar
    assert got_breve == pytest.approx(breve, rel=1e-12, abs=0)
    assert got_breve == pytest.approx(full, rel=1e-12, abs=0)
    with pytest.raises(SingularSystemError, match=r"margin of the centered problem is -0\.039060362"):
        solve_pi(c)


def test_refusal_names_the_last_step_and_quotes_the_exact_margin():
    # a strongly negative terminal weight: G = dt R + Bbar' QT Bbar fails at step N-1
    c, tree = _demo("mean_field.cfg", 3)
    c = replace(c, QT=-8.0 * np.eye(c.n))
    _, bar, breve = dense_margins(c, tree, c.grid())
    for solve, margin, problem in ((solve_pi, breve, "centered"), (solve_l, bar, "conditional-mean")):
        with pytest.raises(SingularSystemError, match=r"not positive definite at step 2, ") as err:
            solve(c)
        quoted = str(err.value).rsplit(f"the exact convexity margin of the {problem} problem is ", 1)
        assert margin < 0.0 and float(quoted[1]) == pytest.approx(margin, rel=1e-11, abs=0)


def test_margin_of_a_singular_control_weight_is_zero():
    # R = 0 and B = 0: every shift below 0 passes and 0 itself fails
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2)
    for margin in convexity_margins(c, 2):
        assert -1e-15 < margin <= 0.0
