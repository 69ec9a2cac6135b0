import dataclasses

import numpy as np
import pytest
from helpers_bruteforce import brute_cost_bar, brute_cost_mft, brute_simulate_mft
from helpers_sampled_margin import estimate_convexity_margin
from helpers_split import cond_mean, prefix_mean
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq.coeffs import as_coefficient, bar_transform, breve_as_plain, make_coefficients
from cmvlq.decomposition import (
    check_decomposition,
    eval_cost_mft,
    lemma_identities,
    simulate_mft,
)
from cmvlq.errors import AdaptednessError, ConstraintViolationError, DimensionError
from cmvlq.fbsde import solve_breve_fbsde
from cmvlq.instances import random_control, random_instance
from cmvlq.lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    TimeGrid,
    TreeProcess,
    build_joint_tree,
    inner_product,
)
from cmvlq.oracle import solve_qp_breve
from cmvlq.riccati import convexity_margins


def zero_control(tree, grid, d):
    return TreeProcess(
        tree, [np.zeros((tree.n_nodes(k), d)) for k in range(grid.n_steps)], F_ADAPTED
    )


def test_static_state_terminal_cost_is_half():
    # x stays at 1 with no dynamics, so J = 0.5 * x_T' QT x_T = 0.5
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, QT=[[1.0]], R=1.0)
    grid = c.grid()
    tree = build_joint_tree(grid)
    u = zero_control(tree, grid, 1)
    x = simulate_mft(c, tree, grid, u, np.array([1.0]))
    assert eval_cost_mft(c, x, u, tree, grid) == pytest.approx(0.5, abs=1e-15)


def test_static_state_running_cost_is_half():
    c = make_coefficients(1, 1, horizon=1.0, n_steps=4, Q=1.0, R=1.0)
    grid = c.grid()
    tree = build_joint_tree(grid)
    u = zero_control(tree, grid, 1)
    x = simulate_mft(c, tree, grid, u, np.array([1.0]))
    assert eval_cost_mft(c, x, u, tree, grid) == pytest.approx(0.5, abs=1e-15)


def _rich_two_step_setup():
    """Hand-built 2-step set exercising every coefficient and slopes."""
    rng = np.random.default_rng(2024)
    n, d, N = 2, 2, 2
    mk = lambda *shape: rng.uniform(-1.0, 1.0, size=shape)
    c = make_coefficients(
        n,
        d,
        horizon=0.8,
        n_steps=N,
        H=mk(n, n),
        QT=np.eye(n),
        A=mk(n, n),
        A_slope=0.3 * mk(n, n),
        F=mk(n, n),
        B=mk(n, d),
        B_slope=0.3 * mk(n, d),
        S=0.2 * mk(n, d),
        b=mk(n),
        b_slope=mk(n),
        D=mk(n),
        D0=mk(n),
        D0_slope=mk(n),
        zeta=mk(n),
        varpi=mk(d),
        Q=2.0 * np.eye(n),
        R=np.eye(d) + 0.1 * np.ones((d, d)),
    )
    atoms = np.array([0.3, 0.7])
    xi = np.array([[1.0, -0.5], [0.2, 0.4]])
    tree = build_joint_tree(c.grid(), atom_probs=atoms)
    u = TreeProcess(
        tree,
        [rng.standard_normal((tree.n_nodes(k), d)) for k in range(N)],
        F_ADAPTED,
    )
    return c, tree, xi, atoms, u


def test_mft_simulation_matches_enumeration():
    c, tree, xi, atoms, u = _rich_two_step_setup()
    grid = c.grid()
    x = simulate_mft(c, tree, grid, u, xi)
    _, states = brute_simulate_mft(c, xi, atoms, u.values, grid)
    for k in range(grid.n_steps + 1):
        assert np.allclose(x.values[k], np.array(states[k]), atol=1e-13, rtol=0.0)


def test_mft_cost_matches_enumeration():
    c, tree, xi, atoms, u = _rich_two_step_setup()
    grid = c.grid()
    x = simulate_mft(c, tree, grid, u, xi)
    j = eval_cost_mft(c, x, u, tree, grid)
    j_ref = brute_cost_mft(c, xi, atoms, u.values, grid)
    assert j == pytest.approx(j_ref, abs=1e-12 * max(1.0, abs(j_ref)))


def test_bar_cost_matches_enumeration():
    c, tree, xi, atoms, _ = _rich_two_step_setup()
    grid = c.grid()
    cb = bar_transform(c)
    rng = np.random.default_rng(77)
    v_pref = [rng.standard_normal((tree.n_prefixes(k), c.d)) for k in range(grid.n_steps)]
    v = TreeProcess(tree.common, v_pref)
    xi_bar = atoms @ xi
    y = simulate_mft(cb, tree.common, grid, v, xi_bar)
    j = eval_cost_mft(cb, y, v, tree.common, grid)
    j_ref = brute_cost_bar(cb, xi_bar, v_pref, grid)
    assert j == pytest.approx(j_ref, abs=1e-12 * max(1.0, abs(j_ref)))


def test_breve_cost_matches_enumeration():
    c, tree, xi, atoms, u = _rich_two_step_setup()
    grid = c.grid()
    alpha = TreeProcess(
        tree,
        [w - cond_mean(tree, k, w) for k, w in enumerate(u.values)],
        F_ADAPTED,
    )
    xi_c = xi - atoms @ xi
    cc = breve_as_plain(c)
    z = simulate_mft(cc, tree, grid, alpha, xi_c)
    j = eval_cost_mft(cc, z, alpha, tree, grid)
    # the centered problem is the mean-field cost with interaction, noise
    # sharing, and affine data removed
    zeros_n = np.zeros(c.n)
    c2 = dataclasses.replace(
        c,
        F=as_coefficient(np.zeros((c.n, c.n)), c.n_steps, (c.n, c.n), "F"),
        b=as_coefficient(zeros_n, c.n_steps, (c.n,), "b"),
        D0=as_coefficient(zeros_n, c.n_steps, (c.n,), "D0"),
        zeta=as_coefficient(zeros_n, c.n_steps, (c.n,), "zeta"),
        varpi=as_coefficient(np.zeros(c.d), c.n_steps, (c.d,), "varpi"),
        H=np.zeros((c.n, c.n)),
    )
    j_ref = brute_cost_mft(c2, xi_c, atoms, alpha.values, grid)
    assert j == pytest.approx(j_ref, abs=1e-12 * max(1.0, abs(j_ref)))
    for k in range(grid.n_steps + 1):
        prefix = prefix_mean(tree, k, z.values[k])
        assert np.max(np.abs(prefix)) < 1e-12 * (1.0 + np.max(np.abs(z.values[k])))


@pytest.mark.parametrize("seed", range(12))
def test_cost_splits_exactly(seed):
    inst = random_instance(seed)
    grid = inst.grid()
    tree = inst.tree()
    u = random_control(inst, tree, 7)
    x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
    rep = check_decomposition(inst.coeffs, x, u, tree, grid)
    assert rep.relative_residual < 1e-11


@pytest.mark.parametrize("seed", range(8))
def test_cross_term_identities(seed):
    inst = random_instance(seed + 100)
    grid = inst.grid()
    tree = inst.tree()
    u = random_control(inst, tree, 3)
    x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
    ids = lemma_identities(inst.coeffs, x, u, tree, grid)
    assert set(ids) == {"i", "ii", "iii", "iv", "v", "v_terminal"}
    for key, (lhs, rhs) in ids.items():
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), key


def test_cross_term_identities_refuse_an_f0_tagged_pair():
    inst = random_instance(100)
    grid, tree = inst.grid(), inst.tree()
    u = random_control(inst, tree, 3)
    x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
    for pair in ((TreeProcess(tree, x.values, F0_ADAPTED), u), (x, TreeProcess(tree, u.values, F0_ADAPTED))):
        with pytest.raises(AdaptednessError, match="lemma_identities"):
            lemma_identities(inst.coeffs, *pair, tree, grid)


@pytest.mark.parametrize("seed", [5, 23, 51])
def test_conditioned_state_solves_bar_recursion(seed):
    # E[x|F0] must BE the bar state driven by E[u|F0], and the remainder
    # the breve state driven by the centered control: closure of the
    # admissible classes under splitting.
    inst = random_instance(seed)
    grid = inst.grid()
    tree = inst.tree()
    cb = bar_transform(inst.coeffs)
    u = random_control(inst, tree, 11)
    x = simulate_mft(inst.coeffs, tree, grid, u, inst.xi)
    xbar = [cond_mean(tree, k, v) for k, v in enumerate(x.values)]

    ubar = TreeProcess(tree.common, [prefix_mean(tree, k, v) for k, v in enumerate(u.values)])
    y = simulate_mft(cb, tree.common, grid, ubar, inst.xi_mean())
    for k in range(grid.n_steps + 1):
        scale = 1.0 + np.max(np.abs(x.values[k]))
        ybar = tree.expand_rows(k, y.values[k].T).T
        assert np.max(np.abs(ybar - xbar[k])) < 1e-12 * scale

    ubreve = TreeProcess(tree, [v - cond_mean(tree, k, v) for k, v in enumerate(u.values)])
    z = simulate_mft(breve_as_plain(inst.coeffs), tree, grid, ubreve, inst.xi_centered())
    for k in range(grid.n_steps + 1):
        scale = 1.0 + np.max(np.abs(x.values[k]))
        assert np.max(np.abs(z.values[k] - (x.values[k] - xbar[k]))) < 1e-12 * scale


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_split_controls_are_orthogonal(seed):
    inst = random_instance(seed % 500)
    grid = inst.grid()
    tree = inst.tree()
    u = random_control(inst, tree, seed)
    ubar = TreeProcess(tree, [cond_mean(tree, k, v) for k, v in enumerate(u.values)])
    ubre = TreeProcess(
        tree, [a - b for a, b in zip(u.values, ubar.values)], F_ADAPTED
    )
    ip = inner_product(ubar, ubre, tree, grid)
    nu = inner_product(u, u, tree, grid)
    assert abs(ip) < 1e-12 * max(1.0, nu)


def test_pure_control_cost_margins_are_one():
    # Q = S = QT = 0 and R = I make every Rayleigh quotient exactly 1.
    c = make_coefficients(
        2, 2, horizon=1.0, n_steps=3, R=np.eye(2), A=0.5 * np.ones((2, 2)), B=np.eye(2)
    )
    grid = c.grid()
    tree = build_joint_tree(grid)
    rep = estimate_convexity_margin(c, tree, grid, n_samples=4, seed=9)
    for m in (rep.margin_mft, rep.margin_bar, rep.margin_breve):
        assert m == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_margin_refuses_no_samples(n_samples):
    inst = random_instance(2, max_steps=3)
    with pytest.raises(ValueError, match="n_samples"):
        estimate_convexity_margin(inst.coeffs, inst.tree(), inst.grid(), n_samples=n_samples, seed=1)


def test_processes_of_the_other_tree_kind_are_refused():
    # a one-atom joint tree and its common form share grid and atoms
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, R=1.0, QT=[[1.0]])
    grid = c.grid()
    tree = build_joint_tree(grid)
    common = tree.common
    for on, other in ((tree, common), (common, tree)):
        u_other = zero_control(other, grid, 1)
        x_other = simulate_mft(c, other, grid, u_other, np.zeros(1))
        u_on = zero_control(on, grid, 1)
        x_on = simulate_mft(c, on, grid, u_on, np.zeros(1))
        with pytest.raises(DimensionError):
            simulate_mft(c, on, grid, u_other, np.zeros(1))
        with pytest.raises(DimensionError):
            eval_cost_mft(c, x_on, u_other, on, grid)
        with pytest.raises(DimensionError):
            eval_cost_mft(c, x_other, u_on, on, grid)


@pytest.mark.parametrize("seed", range(40))
def test_sampled_quotients_never_undercut_the_exact_margins(seed):
    # every sampled quotient is a Rayleigh quotient of the form it samples,
    # so none can fall below that form's smallest eigenvalue
    inst = random_instance(seed, max_steps=5)
    tree = inst.tree()
    bar, breve = convexity_margins(inst.coeffs, tree.n_atoms)
    rep = estimate_convexity_margin(inst.coeffs, tree, inst.grid(), n_samples=4, seed=seed)
    for sampled, exact in ((rep.margin_bar, bar), (rep.margin_breve, breve),
                           (rep.margin_mft, min(bar, breve))):
        assert sampled >= exact - 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("seed", [2, 17])
def test_margin_split_bound(seed):
    inst = random_instance(seed, max_steps=4)
    grid = inst.grid()
    tree = inst.tree()
    rep = estimate_convexity_margin(inst.coeffs, tree, grid, n_samples=6, seed=31)
    assert rep.margin_mft > 0.0
    assert rep.margin_bar > 0.0
    assert rep.margin_breve > 0.0
    assert rep.margin_mft >= min(rep.margin_bar, rep.margin_breve) - 1e-9


@pytest.mark.parametrize("tag", [F_ADAPTED, F0_ADAPTED])
@pytest.mark.parametrize("varying", [False, True])
def test_bar_refuses_joint_tree_processes(tag, varying):
    """The bar problem lives on tree.common: a joint-tree control or state
    is refused, whatever its tag and even where it is constant on every
    W0 prefix, as a simulate_mft control on ``tree.common`` and as
    eval_cost_mft's state and control there."""
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, R=1.0, QT=[[1.0]])
    grid = c.grid()
    tree = build_joint_tree(grid)
    cb = bar_transform(c)
    rng = np.random.default_rng(0)

    def joint(n_arrays):
        if varying:
            return [rng.standard_normal((tree.n_nodes(k), 1)) for k in range(n_arrays)]
        return [tree.expand_rows(k, rng.standard_normal((1, 2**k))).T for k in range(n_arrays)]

    v = TreeProcess(tree.common, [np.zeros((2**k, 1)) for k in range(grid.n_steps)])
    y = simulate_mft(cb, tree.common, grid, v, np.zeros(1))
    u_joint = TreeProcess(tree, joint(grid.n_steps), tag)
    y_joint = TreeProcess(tree, joint(grid.n_steps + 1), tag)
    with pytest.raises(DimensionError, match="control"):
        simulate_mft(cb, tree.common, grid, u_joint, np.zeros(1))
    with pytest.raises(DimensionError, match="state"):
        eval_cost_mft(cb, y_joint, v, tree.common, grid)
    with pytest.raises(DimensionError, match="control"):
        eval_cost_mft(cb, y, u_joint, tree.common, grid)


@pytest.mark.parametrize("other", ["atom_probs", "horizon"])
def test_mft_refuses_processes_of_another_tree(other):
    """A process of a tree with other atom probabilities or another
    horizon is refused, though its shapes fit: as a simulate_mft control
    and as eval_cost_mft's state and control.  One of an equal tree built
    apart is accepted."""
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, R=1.0, QT=[[1.0]])
    grid = c.grid()
    tree = build_joint_tree(grid, atom_probs=[0.3, 0.7])
    foreign = build_joint_tree(
        grid if other == "atom_probs" else TimeGrid(2, 2.0),
        atom_probs=[0.5, 0.5] if other == "atom_probs" else [0.3, 0.7],
    )
    xi = np.array([[0.7], [-0.3]])
    u = zero_control(tree, grid, 1)
    x = simulate_mft(c, tree, grid, u, xi)
    twin = build_joint_tree(grid, atom_probs=[0.3, 0.7])
    assert eval_cost_mft(c, x, zero_control(twin, grid, 1), tree, grid) == eval_cost_mft(
        c, x, u, tree, grid
    )
    u_other = zero_control(foreign, grid, 1)
    x_other = TreeProcess(foreign, x.values, F_ADAPTED)
    with pytest.raises(DimensionError, match="control"):
        simulate_mft(c, tree, grid, u_other, xi)
    with pytest.raises(DimensionError, match="state"):
        eval_cost_mft(c, x_other, u, tree, grid)
    with pytest.raises(DimensionError, match="control"):
        eval_cost_mft(c, x, u_other, tree, grid)


def test_breve_rejects_biased_initial_state():
    # the centered problem's solvers refuse an initial split with a nonzero mean
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, R=1.0, QT=[[1.0]])
    grid = c.grid()
    tree = build_joint_tree(grid)
    for solve in (solve_breve_fbsde, solve_qp_breve):
        with pytest.raises(ConstraintViolationError, match="xi_breve"):
            solve(c, tree, grid, np.array([0.5]))


def test_breve_rejects_a_non_finite_initial_split():
    # a NaN compares false against the tolerance: the check must fail on it
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, R=1.0, QT=[[1.0]])
    grid = c.grid()
    tree = build_joint_tree(grid)
    for solve in (solve_breve_fbsde, solve_qp_breve):
        with pytest.raises(ConstraintViolationError, match="xi_breve"):
            solve(c, tree, grid, np.array([np.nan]))
