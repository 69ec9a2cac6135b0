"""Problem coefficients, their validation, and the mean-field transforms.

Coefficients are piecewise constant per grid step.  Each one may further
depend on the common noise through an affine term in the cumulative W0
value, base + slope * W0, which keeps it measurable with respect to the
common-noise filtration and lets the tree evaluate it exactly per node.

The standing positivity assumption (control weight uniformly positive
definite, state weight dominating its cross term in the Schur sense,
terminal weight positive semidefinite) must hold at every step and every
reachable node; ``validate_coefficients`` checks it by enumerating the
distinct cumulative-W0 levels, which is exact for affine dependence.

There is one problem type.  Both sub-problems of the decomposition are
coefficient sets of their own: ``bar_transform`` gives the
conditional-mean problem and ``breve_as_plain`` the centered one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionError, NotDeterministicError
from .lattice import TimeGrid, w0_levels

PSD_TOL = 1e-10
SYM_TOL = 1e-12


@dataclass(frozen=True)
class Coefficient:
    """One piecewise-constant, possibly node-dependent coefficient.

    base has shape (n_steps, *shape); slope is None for a deterministic
    coefficient, otherwise an array of the same shape giving the loading
    on the cumulative common-noise value.
    """

    base: np.ndarray
    slope: np.ndarray | None = None

    @property
    def deterministic(self) -> bool:
        return self.slope is None

    @property
    def shape(self) -> tuple:
        return self.base.shape[1:]

    @cached_property
    def zero_at(self) -> list:
        """Per step, whether the coefficient is deterministic and zero there."""
        if self.slope is not None:
            return [False] * len(self.base)
        return (~self.base.reshape(len(self.base), -1).any(axis=1)).tolist()

    def at_step(self, k: int) -> np.ndarray:
        if self.slope is not None:
            raise NotDeterministicError(
                "coefficient is node-dependent; evaluate it at explicit W0 values"
            )
        return self.base[k]

    def at_w0(self, k: int, w0: np.ndarray) -> np.ndarray:
        """Evaluate at step k for an array of cumulative-W0 values.

        Returns shape (len(w0), *shape).
        """
        w0 = np.asarray(w0, dtype=float)
        out = np.broadcast_to(self.base[k], (len(w0),) + self.shape).copy()
        if self.slope is not None:
            out += np.multiply.outer(w0, self.slope[k])
        return out


def as_coefficient(value, n_steps: int, shape: tuple, name: str, slope=None) -> Coefficient:
    """Broadcast scalars/arrays to the per-step layout, with shape checks."""
    base = _broadcast(value, n_steps, shape, name)
    sl = None if slope is None else _broadcast(slope, n_steps, shape, name + "_slope")
    return Coefficient(base, sl)


def _broadcast(value, n_steps, shape, name):
    arr = np.asarray(value, dtype=float)
    full = (n_steps,) + shape
    if arr.ndim == 0:
        if shape not in ((), (1,), (1, 1)):
            raise DimensionError(name, f"scalar given where shape {shape} required")
        return np.broadcast_to(arr.reshape((1,) * len(full)), full).copy()
    if arr.shape == shape:
        return np.broadcast_to(arr, full).copy()
    if arr.shape == full:
        return arr.copy()
    raise DimensionError(name, f"expected shape {shape} or {full}, got {arr.shape}")


_COEFF_FIELDS = {
    # name -> shape builder given (n, d)
    "A": lambda n, d: (n, n),
    "F": lambda n, d: (n, n),
    "B": lambda n, d: (n, d),
    "S": lambda n, d: (n, d),
    "b": lambda n, d: (n,),
    "D": lambda n, d: (n,),
    "D0": lambda n, d: (n,),
    "zeta": lambda n, d: (n,),
    "varpi": lambda n, d: (d,),
    "Q": lambda n, d: (n, n),
    "R": lambda n, d: (d, d),
}


@dataclass(frozen=True)
class CoefficientSet:
    """Full coefficient data for the conditional mean-field problem.

    State dimension n, control dimension d, horizon T split into n_steps.
    A, F multiply the state and its conditional mean in the drift; B the
    control; b is the drift constant; D and D0 load the idiosyncratic and
    common noises.  Q, S, R, zeta, varpi are the running cost weights
    (state, cross, control, state-linear, control-linear); H mixes the
    conditional mean into the cost deviation; QT is the terminal weight.
    H and QT are constant matrices.
    """

    n: int
    d: int
    horizon: float
    n_steps: int
    A: Coefficient
    F: Coefficient
    B: Coefficient
    S: Coefficient
    b: Coefficient
    D: Coefficient
    D0: Coefficient
    zeta: Coefficient
    varpi: Coefficient
    Q: Coefficient
    R: Coefficient
    H: np.ndarray
    QT: np.ndarray

    @property
    def deterministic(self) -> bool:
        return all(
            getattr(self, f).deterministic for f in _COEFF_FIELDS
        )

    def grid(self) -> TimeGrid:
        return TimeGrid(self.n_steps, self.horizon)


def make_coefficients(n, d, horizon, n_steps, *, H=None, QT=None, **fields) -> CoefficientSet:
    """Build a CoefficientSet from scalars, matrices, or per-step arrays.

    Any running coefficient may be given as ``name=value`` and optionally
    ``name_slope=value`` for affine common-noise dependence.  Omitted
    coefficients default to zero.  H and QT are constant; QT defaults to
    zero, H to zero.
    """
    known = set(_COEFF_FIELDS) | {f + "_slope" for f in _COEFF_FIELDS}
    unknown = set(fields) - known
    if unknown:
        raise DimensionError(sorted(unknown)[0], "unknown coefficient name")
    coeffs = {}
    for name, shape_fn in _COEFF_FIELDS.items():
        shape = shape_fn(n, d)
        value = fields.get(name, np.zeros(shape))
        slope = fields.get(name + "_slope")
        coeffs[name] = as_coefficient(value, n_steps, shape, name, slope)
    H = np.zeros((n, n)) if H is None else _const_matrix(H, (n, n), "H")
    QT = np.zeros((n, n)) if QT is None else _const_matrix(QT, (n, n), "QT")
    return CoefficientSet(
        n=n, d=d, horizon=float(horizon), n_steps=int(n_steps), H=H, QT=QT, **coeffs
    )


def _const_matrix(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if shape != (1, 1):
            # allow scalar * identity only for 1x1; explicit matrices otherwise
            raise DimensionError(name, f"scalar given where shape {shape} required")
        arr = arr.reshape(1, 1)
    if arr.shape != shape:
        raise DimensionError(name, f"expected shape {shape}, got {arr.shape}")
    return arr.copy()


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption check.

    delta_hat: smallest eigenvalue of the control weight over all steps
    and nodes (must be strictly positive).  schur_min: smallest eigenvalue
    of Q - S R^-1 S' likewise.  qt_min: smallest eigenvalue of the
    terminal weight.  passed is True iff delta_hat > 0 and the two
    semidefinite minima clear -PSD_TOL.
    """

    delta_hat: float
    schur_min: float
    qt_min: float
    passed: bool
    messages: tuple = ()


def validate_coefficients(c: CoefficientSet, grid: TimeGrid) -> ValidationReport:
    """Check dimensions, symmetry, and the positivity assumption pathwise.

    Node-dependent coefficients are evaluated at every distinct
    cumulative-W0 level of every step, which covers every reachable node
    exactly (affine dependence takes as many values as there are levels).
    Symmetry failures beyond SYM_TOL raise; there is no silent
    symmetrization.
    """
    if grid.n_steps != c.n_steps:
        raise DimensionError("n_steps", f"grid has {grid.n_steps}, coefficients have {c.n_steps}")
    if abs(grid.horizon - c.horizon) > 1e-12 * max(1.0, abs(c.horizon)):
        raise DimensionError("horizon", f"grid has {grid.horizon}, coefficients have {c.horizon}")
    n, d = c.n, c.d
    for name, shape_fn in _COEFF_FIELDS.items():
        coeff = getattr(c, name)
        want = (c.n_steps,) + shape_fn(n, d)
        if coeff.base.shape != want:
            raise DimensionError(name, f"expected {want}, got {coeff.base.shape}")
        if coeff.slope is not None and coeff.slope.shape != want:
            raise DimensionError(name + "_slope", f"expected {want}, got {coeff.slope.shape}")
    for name in ("Q", "R"):
        coeff = getattr(c, name)
        for k in range(c.n_steps):
            _check_symmetry(coeff.base[k], name, k)
            if coeff.slope is not None:
                _check_symmetry(coeff.slope[k], name + "_slope", k)
    _check_symmetry(c.QT, "QT", None)

    delta_hat = np.inf
    schur_min = np.inf
    for k in range(c.n_steps):
        levels = w0_levels(grid, k)
        Rk = c.R.at_w0(k, levels)
        Qk = c.Q.at_w0(k, levels)
        Sk = c.S.at_w0(k, levels)
        r_eigs = np.linalg.eigvalsh(Rk)
        delta_hat = min(delta_hat, float(r_eigs.min()))
        try:
            X = np.linalg.solve(Rk, np.swapaxes(Sk, -1, -2))
        except np.linalg.LinAlgError:
            X = np.stack([np.linalg.pinv(Rk[i]) @ Sk[i].T for i in range(len(levels))])
        schur = Qk - Sk @ X
        schur = 0.5 * (schur + np.swapaxes(schur, -1, -2))
        schur_min = min(schur_min, float(np.linalg.eigvalsh(schur).min()))
    qt_min = float(np.linalg.eigvalsh(c.QT).min())

    messages = []
    if not delta_hat > 0.0:
        messages.append(f"control weight not uniformly positive definite (min eig {delta_hat:.3e})")
    if schur_min < -PSD_TOL:
        messages.append(f"Q - S R^-1 S' indefinite (min eig {schur_min:.3e})")
    if qt_min < -PSD_TOL:
        messages.append(f"terminal weight indefinite (min eig {qt_min:.3e})")
    passed = delta_hat > 0.0 and schur_min >= -PSD_TOL and qt_min >= -PSD_TOL
    return ValidationReport(delta_hat, schur_min, qt_min, passed, tuple(messages))


def asymmetry(mat) -> str | None:
    """Why a square matrix is not symmetric within SYM_TOL, or None if it is."""
    dev = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    return f"not symmetric (max deviation {dev:.3e})" if dev > SYM_TOL else None


def _check_symmetry(mat, name, step):
    if problem := asymmetry(mat):
        raise DimensionError(name, problem, step=step)


def bar_transform(c: CoefficientSet) -> CoefficientSet:
    """The conditional-mean problem as an ordinary problem in its own right.

    Drift A+F, common noise only, no conditional-mean terms (F = D = H =
    0), and the cost weights (I-H)' S, (I-H)' zeta, (I-H)' Q (I-H) and
    (I-H)' QT (I-H); B, b, D0, R and varpi are shared with c.  The
    transforms are linear, so affine common-noise dependence is preserved
    exactly.  The result maps to itself bit for bit (with F = H = 0 every
    transform adds exact zeros), so the conditional-mean entry points
    apply it to whichever set they are given.  Assumes the coefficient
    set has passed validation.
    """
    n, N = c.n, c.n_steps
    ihT = (np.eye(n) - c.H).T

    def lin(coeff: Coefficient, op) -> Coefficient:
        return Coefficient(
            op(coeff.base), None if coeff.slope is None else op(coeff.slope)
        )

    return replace(
        c,
        A=Coefficient(c.A.base + c.F.base, _add_slopes(c.A.slope, c.F.slope)),
        F=as_coefficient(np.zeros((n, n)), N, (n, n), "F"),
        S=lin(c.S, lambda arr: np.einsum("ij,kjl->kil", ihT, arr)),
        D=as_coefficient(np.zeros(n), N, (n,), "D"),
        zeta=lin(c.zeta, lambda arr: np.einsum("ij,kj->ki", ihT, arr)),
        Q=lin(c.Q, lambda arr: np.einsum("ij,kjl,ml->kim", ihT, arr, ihT)),
        H=np.zeros((n, n)),
        QT=ihT @ c.QT @ ihT.T,
    )


def breve_as_plain(c: CoefficientSet) -> CoefficientSet:
    """The centered problem as an ordinary problem in its own right.

    Idiosyncratic noise only, with no affine and no conditional-mean terms.
    """
    n, d, N = c.n, c.d, c.n_steps
    zero_n = as_coefficient(np.zeros(n), N, (n,), "zero")
    return replace(
        c,
        F=as_coefficient(np.zeros((n, n)), N, (n, n), "F"),
        b=zero_n,
        D0=zero_n,
        zeta=zero_n,
        varpi=as_coefficient(np.zeros(d), N, (d,), "zero"),
        H=np.zeros((n, n)),
    )


def _add_slopes(a, b):
    if a is None and b is None:
        return None
    if a is None:
        return b.copy()
    if b is None:
        return a.copy()
    return a + b


def homogeneous(c: CoefficientSet) -> CoefficientSet:
    """Drop noise loadings and affine terms: the convexity-form system."""
    zero_vec = as_coefficient(np.zeros((c.n,)), c.n_steps, (c.n,), "zero")
    zero_ctl = as_coefficient(np.zeros((c.d,)), c.n_steps, (c.d,), "zero")
    return replace(c, b=zero_vec, D=zero_vec, D0=zero_vec, zeta=zero_vec, varpi=zero_ctl)

