"""Tree construction and exact-conditioning tests.

The reference implementation here enumerates increment histories with
plain Python loops and computes conditional expectations by grouping
histories on their common-noise prefix, so the vectorized tree machinery
is checked against something written independently.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from helpers_node_major import coeff_nodes, ref_index_maps
from helpers_split import cond_mean, prefix_mean
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq.coeffs import as_coefficient
from cmvlq.decomposition import _Prefixed
from cmvlq.errors import CapacityError, DimensionError
from cmvlq.lattice import (
    F_ADAPTED,
    TimeGrid,
    TreeProcess,
    build_joint_tree,
    inner_product,
    w0_levels,
    w0_prefix_cums,
    w0_prefix_levels,
)
from cmvlq.sim import _check_initial


def enumerate_histories(n_steps, n_atoms=1):
    """All (atom, history) pairs in tree node order.

    A history is a tuple of (s0, s1) sign pairs, one per step, following
    the documented branch order (+,+), (+,-), (-,+), (-,-).
    """
    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    out = []
    for atom in range(n_atoms):
        for hist in itertools.product(pairs, repeat=n_steps):
            out.append((atom, hist))
    return out


def brute_ce_f0(values, histories, atom_probs):
    """Conditional mean given the common-noise sign prefix, by grouping."""
    groups = {}
    for (atom, hist), v in zip(histories, values):
        key = tuple(s0 for s0, _ in hist)
        p = atom_probs[atom] * 0.25 ** len(hist)
        num, den = groups.get(key, (0.0, 0.0))
        groups[key] = (num + p * v, den + p)
    out = []
    for (atom, hist), _ in zip(histories, values):
        key = tuple(s0 for s0, _ in hist)
        num, den = groups[key]
        out.append(num / den)
    return np.array(out)


@pytest.fixture
def grid3():
    return TimeGrid(3, 0.75)


def test_grid_dt_consistency():
    g = TimeGrid(7, 1.3)
    assert abs(g.n_steps * g.dt - g.horizon) <= 1e-14 * g.horizon
    assert len(g.times()) == 8


def test_grid_refuses_a_fractional_step_count():
    with pytest.raises(DimensionError, match=r"^n_steps: must be an integer of at least 1, got 2.5$"):
        TimeGrid(2.5, 1.0)


def test_grid_refuses_fewer_than_one_step():
    with pytest.raises(DimensionError, match=r"^n_steps: must be an integer of at least 1, got 0$"):
        TimeGrid(0, 1.0)


def test_grid_refuses_an_infinite_horizon():
    with pytest.raises(DimensionError, match=r"^horizon: must be finite and positive, got inf$"):
        TimeGrid(3, float("inf"))


def test_grid_refuses_a_non_positive_horizon():
    with pytest.raises(DimensionError, match=r"^horizon: must be finite and positive, got -1.0$"):
        TimeGrid(3, -1.0)


def test_node_counts_and_probabilities(grid3):
    tree = build_joint_tree(grid3)
    for k in range(4):
        assert tree.n_nodes(k) == 4**k
        p = tree.probs(k)
        assert abs(p.sum() - 1.0) <= 1e-14
        assert np.all(p > 0.0)


def test_node_counts_with_atoms(grid3):
    tree = build_joint_tree(grid3, atom_probs=[0.5, 0.25, 0.25])
    for k in range(4):
        assert tree.n_nodes(k) == 3 * 4**k
        assert abs(tree.probs(k).sum() - 1.0) <= 1e-14


def test_increments_have_exact_moments(grid3):
    tree = build_joint_tree(grid3)
    dt = grid3.dt
    for k in range(1, 4):
        p = tree.probs(k)
        for inc in (tree.last_dw0[k], tree.last_dw[k]):
            assert float(p @ inc) == 0.0
            assert abs(float(p @ inc**2) - dt) <= 1e-15
        # the two increments are independent step by step
        assert float(p @ (tree.last_dw0[k] * tree.last_dw[k])) == 0.0


def _cumulative_noises(tree, n_steps):
    """Per-node cumulative W0 and W rows of steps 0..n_steps, from the children kernel."""
    one = np.ones((1, 1))
    cw0, cw = [np.zeros((1, tree.n_nodes(0)))], [np.zeros((1, tree.n_nodes(0)))]
    for k in range(n_steps):
        cw0.append(tree.children_rows(k, cw0[-1], D0=one))
        cw.append(tree.children_rows(k, cw[-1], D=one))
    return [r[0] for r in cw0], [r[0] for r in cw]


def test_cumulative_paths_match_enumeration(grid3):
    tree = build_joint_tree(grid3)
    s = grid3.sqrt_dt
    cum_w0, cum_w = _cumulative_noises(tree, 3)
    for k in range(4):
        hists = enumerate_histories(k)
        cw0 = np.array([s * sum(s0 for s0, _ in h) for _, h in hists])
        cw = np.array([s * sum(s1 for _, s1 in h) for _, h in hists])
        np.testing.assert_allclose(cum_w0[k], cw0, atol=1e-14)
        np.testing.assert_allclose(tree.expand_rows(k, tree.cum_w0_prefix[k]), cw0, atol=1e-14)
        np.testing.assert_allclose(cum_w[k], cw, atol=1e-14)


def test_deterministic_rebuild(grid3):
    a = build_joint_tree(grid3, atom_probs=[0.5, 0.5])
    b = build_joint_tree(grid3, atom_probs=[0.5, 0.5])
    for k in range(4):
        assert np.array_equal(a.w0_of_node[k], b.w0_of_node[k])
        assert np.array_equal(a.atom_of_node[k], b.atom_of_node[k])
        assert np.array_equal(a.last_dw0[k], b.last_dw0[k])
        assert np.array_equal(a.last_dw[k], b.last_dw[k])
        assert np.array_equal(a.probs(k), b.probs(k))


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("atom_probs", [[1.0], [0.5, 0.25, 0.25]])
@pytest.mark.parametrize("n_steps", [1, 3, 5])
def test_layout_read_off_the_node_order_is_the_enumerated_maps(n_steps, atom_probs):
    # the tree stores only w0_of_node; probabilities, atoms and increments
    # are computed on read and must equal the maps built step by step
    joint = build_joint_tree(TimeGrid(n_steps, 0.75), atom_probs=atom_probs)
    counts = [joint.n_nodes(k) for k in range(n_steps + 1)]
    per_node = [name for name, v in vars(joint).items()
                if isinstance(v, list) and [len(a) for a in v] == counts]
    assert per_node == ["w0_of_node"]
    for tree in (joint, joint.common):
        maps = ref_index_maps(tree)
        for k in range(n_steps + 1):
            assert _same_bits(tree.w0_of_node[k], maps["w0_of_node"][k])
            assert _same_bits(tree.probs(k), maps["node_probs"][k])
            for name in ("atom_of_node", "last_dw0", "last_dw"):
                assert _same_bits(getattr(tree, name)[k], maps[name][k]), (name, k)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        build_joint_tree(TimeGrid(11, 1.0))


def test_atom_prob_validation(grid3):
    # the simulation's own check raises the same error for the same weights
    for probs in ([0.7, 0.2], [1.5, -0.5]):
        with pytest.raises(DimensionError, match="atom_probs: must be positive and sum to one"):
            build_joint_tree(grid3, atom_probs=probs)
        with pytest.raises(DimensionError, match="atom_probs: must be positive and sum to one"):
            _check_initial(np.zeros((2, 1)), probs, 1)


def test_ce_matches_brute_force():
    grid = TimeGrid(2, 1.0)
    atom_probs = [0.25, 0.75]
    tree = build_joint_tree(grid, atom_probs=atom_probs)
    rng = np.random.default_rng(11)
    vals = [rng.standard_normal(tree.n_nodes(k)) for k in range(3)]
    for k in range(3):
        hists = enumerate_histories(k, n_atoms=2)
        expected = brute_ce_f0(vals[k], hists, atom_probs)
        np.testing.assert_allclose(cond_mean(tree, k, vals[k]), expected, atol=1e-13)


def test_documented_node_layout():
    """Children of node i at 4i..4i+3, prefix ids first-step-major, atoms outermost."""
    grid = TimeGrid(3, 0.75)
    s = grid.sqrt_dt
    tree = build_joint_tree(grid, atom_probs=[0.3, 0.7])
    for k in range(4):
        hists = enumerate_histories(k, n_atoms=2)
        w0 = [sum((s0 < 0) << (k - 1 - j) for j, (s0, _) in enumerate(h)) for _, h in hists]
        np.testing.assert_array_equal(tree.w0_of_node[k], w0)
        np.testing.assert_array_equal(tree.atom_of_node[k], [a for a, _ in hists])
        if k == 0:
            continue
        # the last pair of each history is the branch into the node
        np.testing.assert_array_equal(tree.last_dw0[k], [s * h[-1][0] for _, h in hists])
        np.testing.assert_array_equal(tree.last_dw[k], [s * h[-1][1] for _, h in hists])
        parent = np.arange(tree.n_nodes(k)) // 4
        np.testing.assert_array_equal(tree.atom_of_node[k], tree.atom_of_node[k - 1][parent])
        np.testing.assert_array_equal(tree.w0_of_node[k] >> 1, tree.w0_of_node[k - 1][parent])
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) * s
    np.testing.assert_array_equal(np.stack([tree.last_dw0[1], tree.last_dw[1]], axis=1)[:4], signs)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(0, 4),
    n_atoms=st.integers(1, 3),
    payload=st.sampled_from([(), (2,), (2, 2)]),
)
def test_conditioning_by_folding_matches_grouping(seed, k, n_atoms, payload):
    rng = np.random.default_rng(seed)
    atom_probs = rng.uniform(0.1, 1.0, n_atoms)
    atom_probs /= atom_probs.sum()
    tree = build_joint_tree(TimeGrid(4, 1.0), atom_probs=atom_probs)
    values = rng.standard_normal((tree.n_nodes(k),) + payload)
    prefix = prefix_mean(tree, k, values)
    expanded = tree.expand_rows(k, prefix.T).T
    brute = brute_ce_f0(values, enumerate_histories(k, n_atoms), atom_probs)
    np.testing.assert_allclose(expanded, brute, rtol=0.0, atol=1e-14)
    # expansion is the prefix gather, and every member of a prefix gets
    # bit-identical values
    w0 = tree.w0_of_node[k]
    assert np.array_equal(expanded, prefix[w0])
    assert np.array_equal(tree.expand_rows(k, values[: 2**k].T).T, values[: 2**k][w0])


def test_coefficients_per_prefix_on_nodes(grid3):
    tree = build_joint_tree(grid3, atom_probs=[0.5, 0.5])
    rng = np.random.default_rng(2)
    det = as_coefficient(rng.standard_normal((3, 2, 2)), 3, (2, 2), "A")
    dep = as_coefficient(
        rng.standard_normal((3, 2, 2)), 3, (2, 2), "A", slope=rng.standard_normal((3, 2, 2))
    )
    # the library's per-prefix table, expanded onto the nodes, against the
    # node-major gather of the reference
    table = _Prefixed(SimpleNamespace(A=det, F=dep, grid=lambda: grid3), tree, grid3)
    for k in range(3):
        assert np.array_equal(table("A", k), det.base[k])
        assert np.array_equal(coeff_nodes(det, tree, k), det.base[k])
        on_nodes = np.moveaxis(tree.expand_rows(k, table("F", k)), -1, 0)
        gathered = dep.at_w0(k, tree.cum_w0_prefix[k])[tree.w0_of_node[k]]
        assert np.array_equal(on_nodes, gathered)
        assert np.array_equal(coeff_nodes(dep, tree, k), gathered)


def test_ce_constant_on_w0_groups(grid3):
    tree = build_joint_tree(grid3, atom_probs=[0.5, 0.5])
    rng = np.random.default_rng(5)
    for k in range(4):
        v = cond_mean(tree, k, rng.standard_normal((tree.n_nodes(k), 2)))
        constant = tree.expand_rows(k, prefix_mean(tree, k, v).T).T
        assert np.max(np.abs(v - constant)) / (1.0 + np.max(np.abs(v))) <= 1e-13


def test_ce_of_f0_process_is_identity(grid3):
    """Tower property: conditioning an already-conditioned process is a no-op."""
    tree = build_joint_tree(grid3)
    rng = np.random.default_rng(7)
    for k in range(4):
        ce = cond_mean(tree, k, rng.standard_normal(tree.n_nodes(k)))
        np.testing.assert_allclose(cond_mean(tree, k, ce), ce, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
)
def test_ce_linearity(seed, a, b):
    grid = TimeGrid(2, 0.5)
    tree = build_joint_tree(grid)
    rng = np.random.default_rng(seed)
    u = [rng.standard_normal(tree.n_nodes(k)) for k in range(3)]
    v = [rng.standard_normal(tree.n_nodes(k)) for k in range(3)]
    for k in range(3):
        np.testing.assert_allclose(
            cond_mean(tree, k, a * u[k] + b * v[k]),
            a * cond_mean(tree, k, u[k]) + b * cond_mean(tree, k, v[k]), atol=1e-12
        )


def test_projection_conditions_to_zero(grid3):
    tree = build_joint_tree(grid3, atom_probs=[0.4, 0.6])
    rng = np.random.default_rng(3)
    for k in range(4):
        v = rng.standard_normal((tree.n_nodes(k), 3))
        br = v - cond_mean(tree, k, v)
        scale = 1.0 + float(np.max(np.abs(v)))
        assert float(np.max(np.abs(cond_mean(tree, k, br)))) <= 1e-14 * scale


def test_orthogonality(grid3):
    tree = build_joint_tree(grid3)
    rng = np.random.default_rng(9)
    raw = [rng.standard_normal((tree.n_nodes(k), 2)) for k in range(3)]
    u_f0 = TreeProcess(tree, [cond_mean(tree, k, v) for k, v in enumerate(raw)], F_ADAPTED)
    other = [rng.standard_normal((tree.n_nodes(k), 2)) for k in range(3)]
    br = TreeProcess(tree, [v - cond_mean(tree, k, v) for k, v in enumerate(other)], F_ADAPTED)
    ip = inner_product(u_f0, br, tree, grid3)
    scale = 1.0 + max(
        float(np.max(np.abs(v))) for v in u_f0.values + br.values
    )
    assert abs(ip) <= 1e-12 * scale


def test_inner_product_constant():
    grid = TimeGrid(4, 2.0)
    tree = build_joint_tree(grid)
    one = TreeProcess(tree, [np.ones((tree.n_nodes(k), 1)) for k in range(4)])
    assert abs(inner_product(one, one, tree, grid) - grid.horizon) <= 1e-14


def test_inner_product_cumw0_cumw_brute_force():
    """E integral W0_t W_t dt over the tree, against an exhaustive sum."""
    grid = TimeGrid(2, 1.0)
    tree = build_joint_tree(grid)
    cum_w0, cum_w = _cumulative_noises(tree, 1)
    u = TreeProcess(tree, [cum_w0[k][:, None] for k in range(2)])
    v = TreeProcess(tree, [cum_w[k][:, None] for k in range(2)])
    got = inner_product(u, v, tree, grid)

    s = grid.sqrt_dt
    brute = 0.0
    for k in range(2):
        for atom, hist in enumerate_histories(k):
            p = 0.25**k
            cw0 = s * sum(s0 for s0, _ in hist)
            cw = s * sum(s1 for _, s1 in hist)
            brute += p * cw0 * cw * grid.dt
    assert abs(brute) <= 1e-15  # independent increments: the exact value is 0
    assert abs(got - brute) <= 1e-14


def test_inner_product_shape_errors(grid3):
    tree = build_joint_tree(grid3)
    u = TreeProcess(tree, [np.ones((tree.n_nodes(k), 2)) for k in range(3)])
    v = TreeProcess(tree, [np.ones((tree.n_nodes(k), 1)) for k in range(3)])
    with pytest.raises(DimensionError):
        inner_product(u, v, tree, grid3)
    short = TreeProcess(tree, [np.ones((tree.n_nodes(k), 2)) for k in range(2)])
    with pytest.raises(DimensionError):
        inner_product(u, short, tree, grid3)


def test_processes_of_the_other_tree_kind_are_refused(grid3):
    # a one-atom joint tree and its common form share grid and atoms
    tree = build_joint_tree(grid3)
    common = tree.common
    for on, other in ((tree, common), (common, tree)):
        p = TreeProcess(other, [np.ones((other.n_nodes(k), 1)) for k in range(4)])
        with pytest.raises(DimensionError):
            inner_product(p, p, on, grid3)


def test_w0_prefix_cums_match_tree(grid3):
    # a prefix's level is its count of "-" (1) bits, and its value the level's, bit for bit
    cums = w0_prefix_cums(grid3)
    tree = build_joint_tree(grid3)
    levels = w0_prefix_levels(3)
    for k in range(4):
        np.testing.assert_array_equal(cums[k], tree.cum_w0_prefix[k])
        assert len(cums[k]) == 2**k
        assert levels[k].tolist() == [bin(q).count("1") for q in range(2**k)]
        assert tree.cum_w0_prefix[k].tobytes() == w0_levels(grid3, k)[levels[k]].tobytes()


def test_tree_process_node_count_validation(grid3):
    tree = build_joint_tree(grid3)
    with pytest.raises(DimensionError):
        TreeProcess(tree, [np.zeros(3)])
