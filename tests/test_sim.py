"""Monte Carlo layer: reproducibility, closed forms, and the appendix checks.

Expected values come from scalar SDE closed forms (exponential decay,
the Lyapunov second moment, the hyperbolic-tangent value function with
its noise correction), never from the code under test.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import cmvlq.sim as sim_mod
from cmvlq.coeffs import make_coefficients
from cmvlq.decomposition import CENTERING_TOL
from cmvlq.errors import CmvlqError, ConstraintViolationError, DimensionError, NotDeterministicError
from cmvlq.fbsde import build_ode_policy
from cmvlq.instances import random_instance
from cmvlq.riccati import solve_pi
from cmvlq.sim import (
    NOISE_COMMON,
    NOISE_IDIO,
    NOISE_INIT,
    RNG_BLOCK,
    check_bellman,
    check_policy_dominance,
    check_value_function,
    conditional_zero_worst,
    estimate_cost,
    idiosyncratic_signs,
    initial_atoms,
    simulate_forward,
    weak_order_check,
)
from helpers_euler import path_draws, reference_forward


@dataclass
class TablePolicy:
    times: np.ndarray
    gain_centered: np.ndarray
    gain_mean: np.ndarray
    shift: np.ndarray


def zero_policy(c):
    z = np.zeros((2, c.d, c.n))
    return TablePolicy(
        times=np.array([0.0, c.horizon]),
        gain_centered=z,
        gain_mean=z.copy(),
        shift=np.zeros((2, c.d)),
    )


def _recorded_draws(monkeypatch):
    """Record the draws simulate_forward makes: each batch's scaled idiosyncratic
    increments (paths, fine steps) and the raw common-noise signs."""
    seen = {"idio": [], "common": []}
    draw_steps, common_signs = sim_mod._draw_steps, sim_mod.common_signs

    def steps(seed, lo, hi, count, noise, uniform=False, scale=1.0):
        chunks = list(draw_steps(seed, lo, hi, count, noise, uniform, scale))
        if noise == NOISE_IDIO:
            seen["idio"].append(np.concatenate(chunks).T)
        yield from chunks

    def common(*args):
        out = common_signs(*args)
        seen["common"].append(out.copy())
        return out

    monkeypatch.setattr(sim_mod, "_draw_steps", steps)
    monkeypatch.setattr(sim_mod, "common_signs", common)
    return seen


def test_zero_instance_stays_at_zero():
    # positive definite weights: a path costs zero only where its state stays at zero
    c = make_coefficients(2, 1, horizon=1.0, n_steps=2, Q=np.eye(2), R=1.0, QT=np.eye(2))
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 40, 1,
        xi=np.zeros((1, 2)), atom_probs=[1.0], dt_target=0.05,
    )
    assert np.all(ens.path_costs == 0.0)
    assert np.all(ens.group_dev_mean == 0.0) and np.all(ens.group_dev_se == 0.0)
    est = estimate_cost(ens)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_uncontrolled_exponential_decay():
    # pure drift dx = -x dt from 1: terminal value e^{-1} up to Euler bias,
    # read off the terminal cost x_T^2 / 2 * 2
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1, A=-1.0, R=1.0, QT=[[2.0]])
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 8, 2,
        xi=[[1.0]], atom_probs=[1.0], dt_target=1e-3,
    )
    terminal = np.sqrt(ens.path_costs)
    assert np.max(np.abs(terminal - math.exp(-1.0))) <= 5e-3


def test_terminal_second_moment_matches_lyapunov_form():
    # dx = a x dt + s dW: E x_T^2 = e^{2aT} xi^2 + s^2 (e^{2aT}-1)/(2a)
    a, s, x0, T = -0.5, 0.8, 1.2, 1.0
    c = make_coefficients(1, 1, horizon=T, n_steps=1, A=a, D=s, R=1.0, QT=[[2.0]])
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 20_000, 5,
        xi=[[x0]], atom_probs=[1.0], dt_target=1e-3,
    )
    est = estimate_cost(ens)
    exact = math.exp(2 * a * T) * x0**2 + s**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    assert abs(est.mean - exact) <= 3.0 * est.std_error
    # equal group sizes: the cluster SE is std of the group means / sqrt(G)
    group_means = np.array(
        [ens.path_costs[ens.common_index == g].mean() for g in range(16)]
    )
    assert est.std_error == pytest.approx(
        group_means.std(ddof=1) / math.sqrt(16), rel=1e-12
    )
    # no common noise here, so clustering should not distort the scale
    naive = ens.path_costs.std(ddof=1) / math.sqrt(len(ens.path_costs))
    assert 0.5 * naive <= est.std_error <= 2.0 * naive


def test_mean_cost_is_the_exact_euler_second_moment():
    # dx = a x dt + s dW on five steps of h = 0.2 under +-sqrt(h) increments:
    # E x_{j+1}^2 = (1 + a h)^2 E x_j^2 + s^2 h exactly, so the mean cost
    # x_T^2 needs no allowance for Euler bias; the continuous value is far
    # outside the band, so the band does resolve the scheme
    a, s, T = -2.0, 1.0, 1.0
    c = make_coefficients(1, 1, horizon=T, n_steps=1, A=a, D=s, R=1.0, QT=[[2.0]])
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 20_000, 13,
        xi=[[1.0]], atom_probs=[1.0], dt_target=0.2,
    )
    n_fine = len(ens.times) - 1
    assert n_fine == 5
    h = T / n_fine
    m = 1.0
    for _ in range(n_fine):
        m = (1.0 + a * h) ** 2 * m + s**2 * h
    est = estimate_cost(ens)
    assert abs(est.mean - m) <= 4.0 * est.std_error
    continuous = math.exp(2 * a * T) + s**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    assert abs(est.mean - continuous) > 4.0 * est.std_error


def test_seed_determinism_and_batch_independence(monkeypatch):
    c = make_coefficients(2, 1, horizon=0.5, n_steps=2, A=-0.3 * np.eye(2), B=[[1.0], [0.4]], D=[0.5, 0.2], D0=[0.3, 0.1], Q=np.eye(2), R=1.0)
    kw = dict(xi=[[0.5, -0.2]], atom_probs=[1.0], dt_target=0.01)
    pol = zero_policy(c)
    seen = _recorded_draws(monkeypatch)
    one = simulate_forward(pol, c, c.grid(), 300, 7, **kw)
    two = simulate_forward(pol, c, c.grid(), 300, 7, **kw)
    for field in ("path_costs", "group_dev_mean", "group_dev_se"):
        assert np.array_equal(getattr(one, field), getattr(two, field)), field
    monkeypatch.setattr(sim_mod, "SIM_BATCH", 17)
    three = simulate_forward(pol, c, c.grid(), 300, 7, **kw)
    assert np.array_equal(one.path_costs, three.path_costs)
    # one and two draw in one batch of 300 paths each, three in 18 of at most 17
    dw_one, dw_three = seen["idio"][0], np.concatenate(seen["idio"][2:])
    assert np.array_equal(dw_one, dw_three)


def test_increments_reproducible_from_substreams(monkeypatch):
    # 600 paths: two full blocks and a last partial one
    c = make_coefficients(1, 1, horizon=0.5, n_steps=2, D=1.0, R=1.0)
    seen = _recorded_draws(monkeypatch)
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 600, 11,
        xi=[[0.0]], atom_probs=[1.0], dt_target=0.025,
    )
    (dw,), (dw0,) = seen["idio"], seen["common"]
    n_fine = len(ens.times) - 1
    sq = math.sqrt(c.horizon / n_fine)
    assert np.all(np.abs(dw) == sq) and np.all(np.abs(dw0) == 1.0)
    for i in (0, 17, RNG_BLOCK - 1, RNG_BLOCK, 2 * RNG_BLOCK - 1, 2 * RNG_BLOCK, 599):
        expect = path_draws(11, i, n_fine, NOISE_IDIO) * sq
        assert np.array_equal(dw[i], expect)
    for g in (0, 7, ens.n_common - 1):
        assert np.array_equal(dw0[g], path_draws(11, g, n_fine, NOISE_COMMON))
    probs = np.array([0.3, 0.7])
    u = np.array([path_draws(11, i, 1, NOISE_INIT, uniform=True)[0] for i in range(600)])
    expect = np.searchsorted(np.cumsum(probs), u, side="right")
    assert np.array_equal(initial_atoms(11, 0, 600, probs), expect)
    assert np.array_equal(initial_atoms(11, 17, 600, probs), expect[17:])
    band = 4.0 / math.sqrt(ens.n_paths * n_fine)
    assert abs(ens.increment_mean_w) <= band
    assert abs(ens.increment_mean_w0) <= 4.0 / math.sqrt(ens.n_common * n_fine)


def test_draws_do_not_depend_on_how_batches_cross_block_edges():
    cuts = [(0, 100), (100, 300), (300, 600)]
    whole = idiosyncratic_signs(5, 0, 600, 40)
    assert np.array_equal(whole, np.vstack([idiosyncratic_signs(5, lo, hi, 40) for lo, hi in cuts]))
    probs = np.array([0.2, 0.5, 0.3])
    whole = initial_atoms(5, 0, 600, probs)
    assert np.array_equal(whole, np.concatenate([initial_atoms(5, lo, hi, probs) for lo, hi in cuts]))


STORED_FIELDS = ("path_costs", "group_dev_mean", "group_dev_se")


@pytest.mark.parametrize("batch", [sim_mod.SIM_BATCH, 37])
@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_step_chunks_change_no_draw(monkeypatch, chunk, batch):
    # 100 fine steps: chunks of one step, of a size that leaves a remainder,
    # and of more steps than the run has, against the default chunk at the
    # same batch size; 600 paths span three blocks, and batches of 37 cross
    # their edges (the batch size alone moves the group sums' rounding)
    monkeypatch.setattr(sim_mod, "SIM_BATCH", batch)
    c = _mean_field_instance()
    pol = build_ode_policy(c, dt_target=0.02)
    kw = dict(xi=[[1.0, -0.5], [0.2, 0.8]], atom_probs=[0.5, 0.5], n_common=5, dt_target=0.01)
    tanh = _tanh_instance(0.7)
    pi = solve_pi(tanh, backend="ode")
    ckw = dict(xi_centered=XI_C, atom_probs=PROBS, dt_target=0.01)

    def runs():
        ens = simulate_forward(pol, c, c.grid(), 600, 4, **kw)
        costs, _ = sim_mod._breve_run(tanh, pi, tanh.grid(), XI_C, PROBS, 600, 4, dt_target=0.01)
        value = check_value_function(tanh, pi, tanh.grid(), 600, 4, **ckw)
        return ens, costs, value

    default, default_costs, default_value = runs()
    assert len(default.times) - 1 == 100
    monkeypatch.setattr(sim_mod, "STEP_CHUNK", chunk)
    ens, costs, value = runs()
    for field in STORED_FIELDS:
        assert np.array_equal(getattr(ens, field), getattr(default, field)), field
    assert np.array_equal(costs, default_costs)
    assert value == default_value
    # the walk's chunks, joined, are the one-call block arrays
    walk = np.concatenate(list(sim_mod._draw_steps(5, 100, 600, 40, NOISE_IDIO)))
    expect = np.stack([path_draws(5, i, 40, NOISE_IDIO) for i in range(100, 600)])
    assert np.array_equal(walk.T, expect)
    assert np.array_equal(idiosyncratic_signs(5, 100, 600, 40), expect)


def test_increment_memory_does_not_grow_with_the_fine_steps():
    # a batch holds one chunk of increments at a time:
    # eight times the fine steps may add at most a quarter of the whole
    # increment array of one batch at the finer step; four streams keep the
    # per-step group tables (streams x fine steps) small beside that
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, A=-0.5, D=0.4, D0=0.3, Q=1.0, R=1.0)
    n_paths = 1024

    def peak(dt_target):
        tracemalloc.start()
        try:
            ens = simulate_forward(zero_policy(c), c, c.grid(), n_paths, 3, xi=[[1.0]], atom_probs=[1.0],
                                   n_common=4, dt_target=dt_target)
            return len(ens.times) - 1, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (coarse, low), (fine, high) = peak(1 / 199.5), peak(1 / 1599.5)
    assert (coarse, fine) == (200, 1600)
    assert high - low <= 0.25 * n_paths * fine * 8


def test_one_block_of_draws_is_fair_signs_and_uncorrelated_across_the_edge():
    n = 2000
    draws = idiosyncratic_signs(9, 0, 2 * RNG_BLOCK, n)
    assert np.all(np.abs(draws) == 1.0)
    # the share of +1 in one block: binomial, 4 sigma
    size = RNG_BLOCK * n
    share = (draws[:RNG_BLOCK] > 0).mean()
    assert abs(share - 0.5) <= 4.0 * 0.5 / math.sqrt(size)
    # lag-1 across the block edge: the last path of block 0 against the
    # first path of block 1
    lag1 = np.corrcoef(draws[RNG_BLOCK - 1], draws[RNG_BLOCK])[0, 1]
    assert abs(lag1) <= 4.0 / math.sqrt(n)


def _mean_field_instance():
    return make_coefficients(
        2,
        1,
        horizon=1.0,
        n_steps=4,
        A=[[-0.4, 0.2], [0.1, -0.6]],
        F=[[0.3, -0.1], [0.0, 0.2]],
        B=[[1.0], [0.5]],
        S=[[0.1], [-0.2]],
        b=[0.2, -0.1],
        D=[0.4, 0.3],
        D0=[0.3, -0.2],
        zeta=[0.1, 0.0],
        varpi=[0.05],
        Q=[[1.0, 0.1], [0.1, 0.8]],
        R=[[1.0]],
        H=[[0.5, 0.2], [0.0, 0.3]],
        QT=[[0.5, 0.0], [0.0, 0.5]],
    )


def test_kernel_matches_reference_loop(monkeypatch):
    # the kernel regroups the closed-loop arithmetic into per-step tables,
    # so it agrees with the term-by-term loop to rounding, not bit for bit
    c = _mean_field_instance()
    pol = build_ode_policy(c, dt_target=0.02)
    kw = dict(xi=[[1.0, -0.5], [0.2, 0.8]], atom_probs=[0.5, 0.5], n_common=5, dt_target=0.01)
    monkeypatch.setattr(sim_mod, "SIM_BATCH", 37)
    seen = _recorded_draws(monkeypatch)
    ens = simulate_forward(pol, c, c.grid(), 200, 4, **kw)
    ref = reference_forward(pol, c, c.grid(), 200, 4, **kw)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert len(ens.checkpoint_indices) == c.n_steps + 1
    assert np.array_equal(np.concatenate(seen["idio"]), ref["dw"])
    assert close(ens.path_costs, ref["costs"])
    counts = np.bincount(np.arange(200) % 5)[:, None, None].astype(float)
    mean = ref["dev_sum"] / counts
    se = np.sqrt((ref["dev_sq"] / counts - mean**2) / (counts - 1.0))
    assert close(ens.group_dev_mean, mean)
    assert close(ens.group_dev_se, se)


def test_closed_loop_ensemble_matches_continuous_value():
    c = _mean_field_instance()
    pol = build_ode_policy(c)
    xi = np.array([[1.0, -0.5], [0.2, 0.8]])
    probs = np.array([0.5, 0.5])
    ybar = probs @ xi
    xic = xi - ybar

    value_bar = (
        0.5 * ybar @ pol.l_solution.values[0] @ ybar
        + pol.l_solution.offset[0] @ ybar
        + pol.l_solution.constant[0]
    )
    value_breve = 0.5 * float(
        np.einsum("a,ai,ij,aj->", probs, xic, pol.pi.values[0], xic)
    )
    predicted = value_bar + value_breve + pol.pi.constant[0]

    ens = simulate_forward(
        pol, c, c.grid(), 6000, 9,
        xi=xi, atom_probs=probs, n_common=12, dt_target=2e-3,
    )
    est = estimate_cost(ens)
    assert abs(est.mean - predicted) <= 4.0 * est.std_error
    # exact conditioning structure: per-group deviations center to zero
    assert conditional_zero_worst(ens) <= 4.0


TANH = math.tanh(1.0)
LOG_COSH = math.log(math.cosh(1.0))
XI_C = [[1.2], [-0.8]]
PROBS = [0.4, 0.6]
XI_SECOND_MOMENT = 0.4 * 1.44 + 0.6 * 0.64


def _tanh_instance(d_noise):
    return make_coefficients(
        1, 1, horizon=1.0, n_steps=2, B=1.0, Q=1.0, R=1.0, D=d_noise
    )


def test_value_function_check_noise_free():
    c = _tanh_instance(0.0)
    pi = solve_pi(c, backend="ode")
    rep = check_value_function(
        c, pi, c.grid(), 4000, 3, xi_centered=XI_C, atom_probs=PROBS
    )
    assert rep.noise_term == 0.0
    assert rep.predicted == pytest.approx(0.5 * XI_SECOND_MOMENT * TANH, rel=1e-8)
    assert rep.passed, f"z = {rep.z_score}"


def test_value_function_check_with_diffusion():
    c = _tanh_instance(0.7)
    pi = solve_pi(c, backend="ode")
    rep = check_value_function(
        c, pi, c.grid(), 20_000, 4, xi_centered=XI_C, atom_probs=PROBS
    )
    assert rep.noise_term == pytest.approx(0.5 * 0.49 * LOG_COSH, rel=1e-5)
    assert rep.passed, f"z = {rep.z_score}"


def test_ode_noise_constant_matches_closed_form():
    # Pi = tanh(T - t), so the constant is half the integral of
    # 0.49 tanh(1 - t) over [0, 1]: 0.5 * 0.49 * log cosh 1
    pi = solve_pi(_tanh_instance(0.7), backend="ode")
    assert pi.constant[0] == pytest.approx(0.5 * 0.49 * LOG_COSH, rel=1e-12)
    assert not pi.offset.any()


def test_bellman_midpoint_and_endpoints():
    c = _tanh_instance(0.7)
    pi = solve_pi(c, backend="ode")
    grid = c.grid()
    kw = dict(xi_centered=XI_C, atom_probs=PROBS)
    n_fine = 2 * max(1, int(np.ceil(grid.dt / 1e-3)))
    for h in (0, n_fine // 2, n_fine):
        rep = check_bellman(c, pi, grid, h, 20_000, 6, **kw)
        assert rep.passed, f"h={h}, z={rep.z_score}"
    with pytest.raises(DimensionError):
        check_bellman(c, pi, grid, n_fine + 1, 10, 6, **kw)


def test_sign_flipped_policy_loses():
    c = _tanh_instance(0.7)
    pi = solve_pi(c, backend="ode")
    rep = check_policy_dominance(
        c, pi, c.grid(), 4000, 8, xi_centered=XI_C, atom_probs=PROBS
    )
    assert rep.passed
    assert rep.delta.mean > 0
    assert rep.z_score > 3.0


def test_euler_weak_order_ratio():
    # uncontrolled scalar diffusion with terminal weight: the Euler bias
    # of E x_T^2 is linear in dt with an O(dt^2) tail, so halving the
    # step should shrink the mean shift by a factor near two
    a, s = -0.5, 0.8
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1, A=a, D=s, R=1.0, QT=[[2.0]])
    pi = solve_pi(c, backend="ode")
    exact = math.exp(2 * a) * XI_SECOND_MOMENT + s**2 * (math.exp(2 * a) - 1.0) / (2 * a)
    rep = weak_order_check(
        c, pi, c.grid(), exact, 30_000, 12,
        xi_centered=XI_C, atom_probs=PROBS, n_coarse=8,
    )
    assert rep.passed, f"ratio = {rep.ratio}"
    assert rep.step_down * rep.step_down_next > 0  # same-signed shifts


def test_weak_order_maps_fine_steps_by_time():
    # N=2 under 3 Euler steps: step 1 starts at t=1/3, inside the first
    # coarse step, so it takes A_0.  Uncontrolled noise-free paths from
    # +-1 make every mean an exact product of Euler factors.
    c = make_coefficients(1, 1, horizon=1.0, n_steps=2, A=[[[-1.0]], [[0.5]]], R=1.0, QT=[[2.0]])
    pi = solve_pi(c, backend="ode")

    def euler_mean(count):
        h = 1.0 / count
        return math.prod(1.0 + h * (-1.0 if 2 * j < count else 0.5) for j in range(count)) ** 2

    rep = weak_order_check(
        c, pi, c.grid(), 0.0, 40, 1,
        xi_centered=[[1.0], [-1.0]], atom_probs=[0.5, 0.5], n_coarse=3,
    )
    assert rep.bias_coarse == pytest.approx(euler_mean(3), rel=1e-12)
    assert rep.bias_fine == pytest.approx(euler_mean(6), rel=1e-12)


def test_centered_checks_skip_draws_for_zero_loading(monkeypatch):
    # D = 0 at every step: the idiosyncratic draws would only be
    # multiplied by zero, so the centered runs must not make them
    draw_steps = sim_mod._draw_steps

    def no_idiosyncratic_draws(seed, lo, hi, count, noise, *args, **kwargs):
        assert noise != NOISE_IDIO, "idiosyncratic signs drawn for a zero loading"
        return draw_steps(seed, lo, hi, count, noise, *args, **kwargs)

    monkeypatch.setattr(sim_mod, "_draw_steps", no_idiosyncratic_draws)
    c = _tanh_instance(0.0)
    pi = solve_pi(c, backend="ode")
    kw = dict(xi_centered=XI_C, atom_probs=PROBS)
    assert check_value_function(c, pi, c.grid(), 500, 3, **kw).passed
    assert check_bellman(c, pi, c.grid(), 500, 500, 3, **kw).passed
    assert check_policy_dominance(c, pi, c.grid(), 500, 3, **kw).passed


CENTERED_CHECKS = {
    "value": lambda c, pi, kw: check_value_function(c, pi, c.grid(), 4, 1, **kw),
    "bellman": lambda c, pi, kw: check_bellman(c, pi, c.grid(), 0, 4, 1, **kw),
    "dominance": lambda c, pi, kw: check_policy_dominance(c, pi, c.grid(), 4, 1, **kw),
    "weak_order": lambda c, pi, kw: weak_order_check(c, pi, c.grid(), 0.0, 4, 1, n_coarse=2, **kw),
}


@pytest.mark.parametrize("shift", [1.0, 10.0 * CENTERING_TOL])
@pytest.mark.parametrize("check", sorted(CENTERED_CHECKS))
def test_centered_checks_refuse_an_uncentered_split(check, shift):
    # one rule with the tree side: the atoms' mean must vanish to
    # CENTERING_TOL relative to 1 + max |xi|, here 2.2
    c = _tanh_instance(0.7)
    pi = solve_pi(c, backend="ode")
    shifted = [[row[0] + shift] for row in XI_C]
    with pytest.raises(ConstraintViolationError, match=r"E\[xi_breve\] = 0"):
        CENTERED_CHECKS[check](c, pi, dict(xi_centered=shifted, atom_probs=PROBS))
    CENTERED_CHECKS[check](c, pi, dict(xi_centered=XI_C, atom_probs=PROBS))


def test_non_finite_states_are_reported_with_location():
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1, A=1e200, R=1.0)
    with pytest.raises(CmvlqError, match="fine step"):
        simulate_forward(
            zero_policy(c), c, c.grid(), 3, 1,
            xi=[[1.0]], atom_probs=[1.0], dt_target=0.4,
        )


@pytest.mark.parametrize("chunk", [1, 7, 16])
def test_chunk_end_check_names_the_first_non_finite_step(monkeypatch, chunk):
    # each Euler step multiplies a centered state by 1 + dt 1e100 = 5e98, so
    # a state that starts at +-1 overflows at fine step 4, inside a chunk of
    # 7 or 16 steps; E[xi] = 0 and no affine term, so the conditional mean
    # stays exactly 0, and paths on the atom 0 stay at 0
    monkeypatch.setattr(sim_mod, "STEP_CHUNK", chunk)
    c = make_coefficients(1, 1, horizon=1.0, n_steps=1, A=1e100, R=1.0, Q=1.0)
    xi, probs = [[0.0], [1.0], [-1.0]], [1 / 3, 1 / 3, 1 / 3]
    first = int(np.flatnonzero(initial_atoms(3, 0, 40, np.array(probs)))[0])
    assert first > 0
    with pytest.raises(CmvlqError, match=rf"^non-finite state at fine step 4, path {first}$"):
        simulate_forward(zero_policy(c), c, c.grid(), 40, 3, xi=xi, atom_probs=probs,
                         dt_target=0.05)
    pi = solve_pi(_tanh_instance(0.7), backend="ode")
    with pytest.raises(CmvlqError, match=rf"^non-finite centered state at fine step 4, path {first}$"):
        check_value_function(c, pi, c.grid(), 40, 3, xi_centered=xi, atom_probs=probs,
                             dt_target=0.05)


def test_random_coefficients_are_rejected():
    inst = random_instance(0, max_steps=3)
    with pytest.raises(NotDeterministicError):
        simulate_forward(
            zero_policy(inst.coeffs), inst.coeffs, inst.grid(), 4, 1,
            xi=inst.xi, atom_probs=inst.atom_probs, dt_target=0.1,
        )


def test_cluster_standard_error_frozen_values():
    # two equal groups: totals 3 and 7 around overall mean 2.5 give
    # residuals -2, +2, variance 2 * 8 / 16 = 1
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    assert sim_mod.cluster_standard_error(samples, np.array([0, 0, 1, 1])) == 1.0
    # one group falls back to the iid formula
    one = sim_mod.cluster_standard_error(samples, np.zeros(4, dtype=int))
    assert one == pytest.approx(samples.std(ddof=1) / 2.0)
    assert sim_mod.cluster_standard_error(np.array([5.0]), np.array([0])) == 0.0
    with pytest.raises(DimensionError):
        sim_mod.cluster_standard_error(samples, np.array([0, 1]))


def test_common_noise_widens_the_error_bar():
    # with common noise the between-group spread dominates the iid SE
    c = make_coefficients(
        1, 1, horizon=1.0, n_steps=2, A=-0.3, D=0.1, D0=0.8, Q=1.0, R=1.0, QT=[[1.0]]
    )
    ens = simulate_forward(
        zero_policy(c), c, c.grid(), 4_000, 3,
        xi=[[1.0]], atom_probs=[1.0], n_common=8, dt_target=0.01,
    )
    est = estimate_cost(ens)
    naive = ens.path_costs.std(ddof=1) / math.sqrt(len(ens.path_costs))
    assert est.std_error > 3.0 * naive


@pytest.mark.parametrize("dt_target", [-1.0, 0.0])
def test_non_positive_fine_step_is_refused(dt_target):
    c = _tanh_instance(0.7)
    pi = solve_pi(c, backend="ode")
    kw = dict(xi_centered=XI_C, atom_probs=PROBS, dt_target=dt_target)
    runs = (
        lambda: simulate_forward(zero_policy(c), c, c.grid(), 4, 1, xi=XI_C, atom_probs=PROBS,
                                 dt_target=dt_target),
        lambda: check_value_function(c, pi, c.grid(), 4, 1, **kw),
        lambda: check_bellman(c, pi, c.grid(), 0, 4, 1, **kw),
        lambda: check_policy_dominance(c, pi, c.grid(), 4, 1, **kw),
    )
    for run in runs:
        with pytest.raises(ValueError, match="dt_target must be positive"):
            run()
