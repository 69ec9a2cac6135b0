"""Coefficient containers, validation, and the conditional-mean transforms."""

import numpy as np
import pytest

from cmvlq.coeffs import (
    bar_transform,
    homogeneous,
    make_coefficients,
    validate_coefficients,
)
from cmvlq.errors import DimensionError, NotDeterministicError
from cmvlq.instances import random_instance
from cmvlq.lattice import TimeGrid


def test_scalar_trivial_validation():
    c = make_coefficients(1, 1, 1.0, 2, R=1.0, Q=1.0, QT=1.0)
    rep = validate_coefficients(c, TimeGrid(2, 1.0))
    assert rep.passed
    assert rep.delta_hat == pytest.approx(1.0)
    assert rep.schur_min == pytest.approx(1.0)
    assert rep.qt_min == pytest.approx(1.0)


def test_node_dependent_control_weight_dips_but_passes():
    # base - slope * max|W0| == 1e-3 at the deepest running level
    grid = TimeGrid(4, 1.0)
    max_cum = (grid.n_steps - 1) * grid.sqrt_dt
    slope = 0.4
    base = 1e-3 + slope * max_cum
    c = make_coefficients(1, 1, 1.0, 4, R=base, R_slope=slope, Q=1.0, QT=0.0)
    rep = validate_coefficients(c, grid)
    assert rep.passed
    assert rep.delta_hat == pytest.approx(1e-3, rel=1e-9)


def test_semidefinite_control_weight_fails():
    c = make_coefficients(2, 2, 1.0, 2, R=np.diag([2.0, 0.0]), Q=np.eye(2), QT=np.zeros((2, 2)))
    rep = validate_coefficients(c, TimeGrid(2, 1.0))
    assert not rep.passed
    assert rep.delta_hat == pytest.approx(0.0, abs=1e-12)


def test_schur_condition_detects_large_cross_term():
    # Q = I but S large makes Q - S R^-1 S' indefinite
    c = make_coefficients(
        1, 1, 1.0, 1, R=1.0, Q=1.0, S=2.0, QT=0.0
    )
    rep = validate_coefficients(c, TimeGrid(1, 1.0))
    assert not rep.passed
    assert rep.schur_min == pytest.approx(-3.0)


def test_asymmetric_weight_raises():
    c = make_coefficients(2, 1, 1.0, 1, R=1.0, Q=np.array([[1.0, 0.5], [0.0, 1.0]]), QT=np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        validate_coefficients(c, TimeGrid(1, 1.0))


def test_dimension_mismatch_names_field():
    with pytest.raises(DimensionError) as exc:
        make_coefficients(2, 1, 1.0, 1, R=1.0, Q=np.eye(3), QT=np.zeros((2, 2)))
    assert exc.value.field == "Q"


def test_grid_mismatch_rejected():
    c = make_coefficients(1, 1, 1.0, 2, R=1.0, Q=1.0, QT=0.0)
    with pytest.raises(DimensionError):
        validate_coefficients(c, TimeGrid(3, 1.0))


def test_deterministic_evaluation_guard():
    c = make_coefficients(1, 1, 1.0, 2, R=1.0, R_slope=0.1, Q=1.0, QT=0.0)
    with pytest.raises(NotDeterministicError):
        c.R.at_step(0)
    assert c.Q.at_step(1) == pytest.approx(1.0)


def test_bar_transform_identity_mixing():
    # H = 0 keeps the weights; H = I zeroes the transformed ones
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((2, 2))
    Q = Q + Q.T
    S = rng.standard_normal((2, 1))
    zeta = rng.standard_normal(2)
    c0 = make_coefficients(2, 1, 1.0, 2, R=np.eye(1), Q=Q, S=S, zeta=zeta, QT=np.eye(2))
    cb0 = bar_transform(c0)
    np.testing.assert_allclose(cb0.Q.base[0], Q, atol=1e-15)
    np.testing.assert_allclose(cb0.S.base[1], S, atol=1e-15)
    np.testing.assert_allclose(cb0.QT, np.eye(2), atol=1e-15)

    c1 = make_coefficients(
        2, 1, 1.0, 2, R=np.eye(1), Q=Q, S=S, zeta=zeta, QT=np.eye(2), H=np.eye(2)
    )
    cb1 = bar_transform(c1)
    assert np.max(np.abs(cb1.Q.base)) == 0.0
    assert np.max(np.abs(cb1.S.base)) == 0.0
    assert np.max(np.abs(cb1.zeta.base)) == 0.0
    assert np.max(np.abs(cb1.QT)) == 0.0


def test_bar_transform_matches_matrix_products():
    rng = np.random.default_rng(42)
    n, d, N = 3, 2, 4
    Q = rng.standard_normal((N, n, n))
    Q = Q + np.swapaxes(Q, 1, 2)
    S = rng.standard_normal((N, n, d))
    zeta = rng.standard_normal((N, n))
    H = rng.standard_normal((n, n)) * 0.5
    QT = rng.standard_normal((n, n))
    QT = QT @ QT.T
    A = rng.standard_normal((N, n, n))
    F = rng.standard_normal((N, n, n))
    c = make_coefficients(n, d, 2.0, N, A=A, F=F, Q=Q, S=S, zeta=zeta, H=H, QT=QT, R=np.eye(d))
    cb = bar_transform(c)
    ih = np.eye(n) - H
    for k in range(N):
        np.testing.assert_allclose(cb.Q.base[k], ih.T @ Q[k] @ ih, atol=1e-13)
        np.testing.assert_allclose(cb.S.base[k], ih.T @ S[k], atol=1e-13)
        np.testing.assert_allclose(cb.zeta.base[k], ih.T @ zeta[k], atol=1e-13)
        np.testing.assert_allclose(cb.A.base[k], A[k] + F[k], atol=1e-13)
    np.testing.assert_allclose(cb.QT, ih.T @ QT @ ih, atol=1e-13)


def test_bar_transform_preserves_affine_node_dependence():
    rng = np.random.default_rng(1)
    n = 2
    H = rng.standard_normal((n, n)) * 0.3
    Qs = rng.standard_normal((n, n))
    Qs = Qs + Qs.T
    c = make_coefficients(
        n, 1, 1.0, 2, R=np.eye(1), Q=np.eye(n), Q_slope=Qs, QT=np.zeros((n, n)), H=H
    )
    cb = bar_transform(c)
    ih = np.eye(n) - H
    assert cb.Q.slope is not None
    np.testing.assert_allclose(cb.Q.slope[0], ih.T @ Qs @ ih, atol=1e-14)
    # evaluation at a W0 level matches transform-then-evaluate
    w0 = np.array([0.7])
    np.testing.assert_allclose(
        cb.Q.at_w0(0, w0)[0], ih.T @ c.Q.at_w0(0, w0)[0] @ ih, atol=1e-14
    )


@pytest.mark.parametrize("node_dependent", [False, True])
def test_bar_transform_maps_its_output_to_itself(node_dependent):
    # the conditional-mean set has F = D = H = 0, so transforming it again
    # adds exact zeros: every base and slope, H and QT come back bit for bit
    fields = ("A", "F", "B", "S", "b", "D", "D0", "zeta", "varpi", "Q", "R")
    for seed in range(40):
        cb = bar_transform(random_instance(seed, node_dependent=node_dependent).coeffs)
        again = bar_transform(cb)
        for name in fields:
            one, two = getattr(cb, name), getattr(again, name)
            assert one.base.tobytes() == two.base.tobytes(), (seed, name)
            assert (one.slope is None) == (two.slope is None), (seed, name)
            if one.slope is not None:
                assert one.slope.tobytes() == two.slope.tobytes(), (seed, name)
        assert cb.H.tobytes() == again.H.tobytes() and not cb.H.any()
        assert cb.QT.tobytes() == again.QT.tobytes(), seed


def test_homogeneous_strips_affine_and_noise():
    c = make_coefficients(
        1, 1, 1.0, 2, R=1.0, Q=1.0, QT=1.0, b=0.5, D=1.0, D0=2.0, zeta=0.3, varpi=0.2
    )
    h = homogeneous(c)
    for name in ("b", "D", "D0", "zeta", "varpi"):
        assert np.max(np.abs(getattr(h, name).base)) == 0.0
    assert np.max(np.abs(h.Q.base - c.Q.base)) == 0.0
