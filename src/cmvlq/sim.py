"""Monte Carlo forward simulation of the closed-loop system.

Paths draw their random numbers by blocks of RNG_BLOCK = 256.  For
each noise (common increments, idiosyncratic increments, initial atom)
block b has its own generator, substream(seed, b, noise), seeded from
a SeedSequence spawn key (noise, b).  The generator fills the block's
step-major (count, RNG_BLOCK) array as one walk, STEP_CHUNK steps at a
time, with the values a single call would give, and path i takes its
column i % RNG_BLOCK.  So every draw is reproducible from (seed, path
index, step) regardless of batch size, chunk size or execution order;
a batch that ends inside a block still draws that block's full array.

Common-noise paths are shared across many idiosyncratic paths (default
16 of them); each particle carries a companion conditional-mean path
integrated from its own closed-loop dynamics under the same common
increments, so conditional-expectation terms in the cost need no
cross-path regression.

Every closed loop here (the companion paths, the particles, and the
centered runs of the value, Bellman, dominance and weak-order checks)
is advanced by one Euler kernel, ``_euler``, from per-fine-step
tables that ``_closed_loop`` builds before the batches run.  It reads
the idiosyncratic increments in step-major chunks of STEP_CHUNK fine
steps, drawn as it needs them: memory does not grow with the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet
from .decomposition import _check_centered_split
from .errors import CmvlqError, DimensionError
from .lattice import ATOM_SUM_TOL, TimeGrid
from .riccati import OdeBackwardQuadratic, _coeff_tables, _fine_steps, _interp_table

SIM_BATCH = 4096
DEFAULT_COMMON_PATHS = 16
NOISE_COMMON, NOISE_IDIO, NOISE_INIT = 0, 1, 2
# paths per random-number stream: one generator is seeded per block
RNG_BLOCK = 256
# fine steps of increments drawn per block and handed to the Euler kernel at once
STEP_CHUNK = 16


def substream(seed: int, block: int, noise: int) -> np.random.Generator:
    """The generator of one noise for one block of RNG_BLOCK paths.

    Path i takes column i % RNG_BLOCK of the step-major (count, RNG_BLOCK)
    array that substream(seed, i // RNG_BLOCK, noise) draws in one call.
    """
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(noise, int(block))))


def _draw_steps(seed: int, lo: int, hi: int, count: int, noise: int, uniform=False, scale=1.0):
    """Draws of paths lo..hi-1, times scale, as step-major (k, hi - lo) chunks of STEP_CHUNK steps.

    Every block the batch overlaps fills its whole (k, RNG_BLOCK) slab, and
    the batch copies out the columns of its own paths, so a path's draws do
    not depend on how the paths are split into batches.  The generators
    consume their streams in order, so the chunks are the rows of one
    (count, RNG_BLOCK) call per block.
    """
    gens = {b: substream(seed, b, noise) for b in range(lo // RNG_BLOCK, -(-hi // RNG_BLOCK))}
    for start in range(0, count, STEP_CHUNK):
        k = min(STEP_CHUNK, count - start)
        out = np.empty((k, hi - lo))
        for block, gen in gens.items():
            slab = (gen.random if uniform else gen.standard_normal)((k, RNG_BLOCK))
            first = block * RNG_BLOCK
            a, b = max(lo, first), min(hi, first + RNG_BLOCK)
            out[:, a - lo : b - lo] = slab[:, a - first : b - first]
        out *= scale
        yield out


def _draw(seed: int, lo: int, hi: int, count: int, noise: int, uniform: bool = False):
    """Draws of paths lo..hi-1, one row per path, stored column-major."""
    return np.concatenate(list(_draw_steps(seed, lo, hi, count, noise, uniform))).T


def idiosyncratic_normals(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    # column-major: one fine step of every path is contiguous, as in a chunk
    return _draw(seed, lo, hi, count, NOISE_IDIO)


def common_normals(seed: int, n_common: int, count: int) -> np.ndarray:
    return np.ascontiguousarray(_draw(seed, 0, n_common, count, NOISE_COMMON))


def initial_atoms(seed: int, lo: int, hi: int, atom_probs: np.ndarray) -> np.ndarray:
    cum = np.cumsum(atom_probs)
    u = _draw(seed, lo, hi, 1, NOISE_INIT, uniform=True)[:, 0]
    return np.minimum(np.searchsorted(cum, u, side="right"), len(atom_probs) - 1)


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    std_error: float
    n_paths: int


def estimate_from_samples(samples: np.ndarray) -> ValueEstimate:
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ValueEstimate(mean=float(samples.mean()), std_error=se, n_paths=n)


@dataclass(frozen=True)
class CheckReport:
    label: str
    estimate: ValueEstimate
    predicted: float
    noise_term: float
    z_score: float
    passed: bool


@dataclass(frozen=True)
class DominanceReport:
    """Paired-path cost excess of a candidate policy over the reference."""

    delta: ValueEstimate
    z_score: float
    passed: bool


@dataclass(frozen=True)
class WeakOrderReport:
    bias_coarse: float
    bias_fine: float
    step_down: float       # mean shift from halving dt once
    step_down_next: float  # mean shift from halving dt again
    ratio: float
    passed: bool


@dataclass(frozen=True)
class PathEnsemble:
    """Summaries of a Monte Carlo run: per-path costs and the checkpoint deviations.

    No path is stored: the kernel records each batch's states at the
    checkpoints only, and they are folded into the per-stream deviation
    mean and standard error of x - E[x|F0].
    """

    n_paths: int
    seed: int
    n_common: int
    times: np.ndarray
    checkpoint_indices: np.ndarray
    common_index: np.ndarray
    path_costs: np.ndarray
    group_dev_mean: np.ndarray  # (n_common, n_checkpoints, n)
    group_dev_se: np.ndarray
    increment_mean_w: float
    increment_mean_w0: float


# -- fine-grid plumbing -----------------------------------------------------


def _fine_grid(grid: TimeGrid, dt_target: float):
    n_sub = _fine_steps(grid, dt_target)
    n_fine = grid.n_steps * n_sub
    dt = grid.horizon / n_fine
    times = np.linspace(0.0, grid.horizon, n_fine + 1)
    return n_sub, n_fine, dt, times


def _tr(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _batches(n_paths: int):
    return [(lo, min(lo + SIM_BATCH, n_paths)) for lo in range(0, n_paths, SIM_BATCH)]


def _guard_finite(x: np.ndarray, j: int, lo: int, what: str):
    """x holds one row per path."""
    ok = np.isfinite(x)
    if not ok.all():
        bad = int(np.nonzero(~ok.all(axis=1))[0][0])
        raise CmvlqError(f"non-finite {what} at fine step {j}, path {lo + bad}")


@dataclass(frozen=True)
class _Loop:
    """Closed-loop tables of the Euler kernel; entry n_fine is the terminal cost.

    With x a column state and g its path's group, step j maps x to
    M_j x + m_{j,g} + D_j dW_j and costs x'P_j x + p_{j,g}'x + r_{j,g}.
    """

    W: np.ndarray          # (n_fine + 1, 2n, n): rows [M_j; P_j']
    T: np.ndarray | None   # (n_fine + 1, 2n, groups): columns [m_{j,g}; p_{j,g}]
    D: np.ndarray          # (n_fine, n, 1)
    r_before: np.ndarray   # (n_fine + 2, groups): sum of r_{i,g} over i < j


def _closed_loop(dt, tabs, A, gain, QT, *, v=None, h=None, m0=None) -> _Loop:
    """Tables for the feedback u = gain_j x + v_{j,g} under drift A_j.

    Per group g the state map adds dt B v + m0 (m0 carries every other
    group term, common increment included) and the running cost is
    0.5 dt (e'Q e + 2 e'S u + u'R u + 2 zeta'e + 2 varpi'u) with
    e = x + h_{j,g}; the terminal cost is 0.5 e'QT e.  Without v the
    loop has no group terms, and zeta, varpi and the offsets drop out.
    """
    n_fine, n = len(gain), A.shape[-1]
    B, Q, S, R = tabs["B"], tabs["Q"], tabs["S"], tabs["R"]
    W = np.zeros((n_fine + 1, 2 * n, n))
    W[:-1, :n] = np.eye(n) + dt * (A + B @ gain)
    w = 0.5 * dt
    SG = S @ gain
    W[:-1, n:] = _tr(w * (Q + 2.0 * SG + _tr(gain) @ R @ gain))
    W[-1, n:] = 0.5 * QT.T
    D = tabs["D"][:, :, None]
    if v is None:
        return _Loop(W=W, T=None, D=D, r_before=np.zeros((n_fine + 2, 0)))
    # per-group vectors are rows here: (steps, groups, n)
    groups = v.shape[1]
    T = np.zeros((n_fine + 1, groups, 2 * n))
    T[:-1, :, :n] = dt * (v @ _tr(B)) + m0
    r = np.zeros((n_fine + 1, groups))
    hr, hT = h[:-1], h[-1]
    zeta, varpi = tabs["zeta"][:, None, :], tabs["varpi"][:, None, :]
    T[:-1, :, n:] = w * (
        hr @ (Q + _tr(Q)) + 2.0 * v @ _tr(S) + 2.0 * hr @ SG + v @ (R + _tr(R)) @ gain
        + 2.0 * zeta + 2.0 * varpi @ gain
    )
    r[:-1] = w * (
        np.einsum("jgi,jik,jgk->jg", hr, Q, hr) + 2.0 * np.einsum("jgi,jik,jgk->jg", hr, S, v)
        + np.einsum("jgi,jik,jgk->jg", v, R, v) + 2.0 * (hr * zeta).sum(-1)
        + 2.0 * (v * varpi).sum(-1)
    )
    T[-1, :, n:] = 0.5 * hT @ (QT + QT.T)
    r[-1] = 0.5 * np.einsum("gi,ik,gk->g", hT, QT, hT)
    r_before = np.concatenate([np.zeros((1, groups)), np.cumsum(r, axis=0)])
    return _Loop(W=W, T=np.ascontiguousarray(_tr(T)), D=D, r_before=r_before)


def _euler(loop: _Loop, x0, dw, lo: int, what: str, group=None, record=()):
    """The Monte Carlo Euler kernel: one batch of paths through every fine step.

    dw yields the scaled idiosyncratic increments as step-major (k,
    n_paths) chunks, in step order (None when D is zero); the kernel
    keeps only the current chunk.  group gives each path's column of the
    group tables.  Returns the per-path costs, the states at the distinct fine
    steps in record, and the cost accrued before each of those steps.
    """
    n_paths, n = x0.shape
    n_fine = len(loop.D)
    slot = {int(j): i for i, j in enumerate(record)}
    states = np.empty((n_paths, len(slot), n))
    before = np.empty((n_paths, len(slot)))
    # one row per state component: every operation below runs along
    # contiguous rows of n_paths entries
    x = np.array(np.transpose(x0), dtype=float, order="C")
    run = np.zeros(n_paths)
    chunks, chunk, start = iter(() if dw is None else dw), (), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_fine + 1):
            if j in slot:
                states[:, slot[j]] = x.T
                before[:, slot[j]] = run
            z = loop.W[j] @ x
            if loop.T is not None:
                z += loop.T[j].take(group, axis=1)
            run += np.einsum("ib,ib->b", x, z[n:])
            if j == n_fine:
                break
            x = z[:n]
            if dw is not None:
                if j - start == len(chunk):
                    chunk, start = next(chunks), j
                x += loop.D[j] * chunk[j - start]
            _guard_finite(x.T, j + 1, lo, what)
    if loop.T is not None:
        run += loop.r_before[-1][group]
        before += loop.r_before[list(slot)][:, group].T
    return run, states, before


def _check_initial(xi, atom_probs, n):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[None, :]
    atom_probs = np.asarray(atom_probs, dtype=float)
    if xi.shape != (len(atom_probs), n):
        raise DimensionError("xi", f"need ({len(atom_probs)}, {n}) initial atoms, got {xi.shape}")
    if abs(atom_probs.sum() - 1.0) > ATOM_SUM_TOL or np.any(atom_probs <= 0):
        raise DimensionError("atom_probs", "must be positive and sum to one")
    return xi, atom_probs


# -- full closed-loop system ------------------------------------------------


def simulate_forward(
    policy,
    c: CoefficientSet,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    xi,
    atom_probs,
    n_common: int = DEFAULT_COMMON_PATHS,
    dt_target: float = 1e-3,
) -> PathEnsemble:
    """Euler-Maruyama ensemble under a linear feedback policy.

    The conditional-mean companion is integrated first, one path per
    common-noise stream, from its own closed-loop dynamics; particles
    then follow the full dynamics with the companion supplying every
    conditional-expectation term.  Checkpoints sit on the coarse grid.
    """
    xi, atom_probs = _check_initial(xi, atom_probs, c.n)
    if n_paths < 1 or n_common < 1:
        raise DimensionError("n_paths", "need at least one path and one common stream")
    n_sub, n_fine, dt, times = _fine_grid(grid, dt_target)
    tabs = _coeff_tables(c, n_fine)
    left = times[:n_fine]
    Kc = _interp_table(policy.times, policy.gain_centered, left)
    Km = _interp_table(policy.times, policy.gain_mean, left)
    shift = _interp_table(policy.times, policy.shift, left)
    sq = np.sqrt(dt)

    checkpoint_indices = np.arange(0, n_fine + 1, n_sub)
    n_cp = len(checkpoint_indices)

    dw0 = common_normals(seed, n_common, n_fine)
    dw0 *= sq
    common = dw0.T[:, :, None] * tabs["D0"][:, None, :]  # (n_fine, n_common, n)

    # companion conditional-mean paths, one per common stream; the cost
    # the kernel tallies for them is not used
    companion = _closed_loop(
        dt, tabs, tabs["A"] + tabs["F"], -Km, c.QT,
        v=np.broadcast_to(-shift[:, None, :], (n_fine, n_common, c.d)),
        h=np.zeros((n_fine + 1, n_common, c.n)), m0=dt * tabs["b"][:, None, :] + common,
    )
    _, xbar_path, _ = _euler(
        companion, np.tile(atom_probs @ xi, (n_common, 1)), None, 0,
        "conditional-mean state", np.arange(n_common), range(n_fine + 1),
    )  # (n_common, n_fine + 1, n)

    xb = xbar_path.transpose(1, 0, 2)
    particles = _closed_loop(
        dt, tabs, tabs["A"], -Kc, c.QT,
        v=xb[:-1] @ _tr(Kc - Km) - shift[:, None, :],
        h=-xb @ c.H.T,
        m0=dt * (xb[:-1] @ _tr(tabs["F"]) + tabs["b"][:, None, :]) + common,
    )

    def worker(lo, hi):
        gidx = np.arange(lo, hi) % n_common
        sums = []

        def increments():
            for chunk in _draw_steps(seed, lo, hi, n_fine, NOISE_IDIO, scale=sq):
                sums.append(chunk.sum())
                yield chunk

        x0 = xi[initial_atoms(seed, lo, hi, atom_probs)]
        costs, x, _ = _euler(particles, x0, increments(), lo, "state", gidx, checkpoint_indices)
        dev = x - xbar_path[:, checkpoint_indices][gidx]
        dev_sums = np.zeros((2, n_common, n_cp, c.n))
        np.add.at(dev_sums[0], gidx, dev)
        np.add.at(dev_sums[1], gidx, dev * dev)
        return costs, sum(sums), dev_sums

    costs, dw_sums, dev_sums = zip(*[worker(lo, hi) for lo, hi in _batches(n_paths)])
    common_index = np.arange(n_paths) % n_common
    dev_sum, dev_sq = sum(dev_sums)
    dev_cnt = np.bincount(common_index, minlength=n_common).astype(float)
    cnt = np.maximum(dev_cnt, 1.0)[:, None, None]
    dev_mean = dev_sum / cnt
    var = np.maximum(dev_sq / cnt - dev_mean**2, 0.0)
    denom = np.maximum(dev_cnt - 1.0, 1.0)[:, None, None]
    dev_se = np.sqrt(var * (dev_cnt[:, None, None] / denom)) / np.sqrt(cnt)

    return PathEnsemble(
        n_paths=n_paths, seed=seed, n_common=n_common, times=times,
        checkpoint_indices=checkpoint_indices, common_index=common_index,
        path_costs=np.concatenate(costs), group_dev_mean=dev_mean, group_dev_se=dev_se,
        increment_mean_w=float(sum(dw_sums) / (n_paths * n_fine)),
        increment_mean_w0=float(dw0.mean()),
    )


def cluster_standard_error(samples: np.ndarray, groups: np.ndarray) -> float:
    """Standard error of the mean under within-group correlation.

    Paths sharing a common-noise stream are correlated, so the mean is
    effectively averaged over the distinct streams; the variance comes
    from group totals (the usual cluster-robust estimator), which for
    equal group sizes reduces to std(group means)/sqrt(n_groups).  With
    a single nonempty group there is nothing to compare across streams
    and the plain iid formula is the only estimate available.
    """
    samples = np.asarray(samples, dtype=float)
    groups = np.asarray(groups)
    n = len(samples)
    if n != len(groups):
        raise DimensionError("groups", f"{len(groups)} labels for {n} samples")
    if n <= 1:
        return 0.0
    size = int(groups.max()) + 1
    sums = np.bincount(groups, weights=samples, minlength=size)
    counts = np.bincount(groups, minlength=size)
    live = counts > 0
    n_groups = int(live.sum())
    if n_groups <= 1:
        return estimate_from_samples(samples).std_error
    resid = sums[live] - counts[live] * samples.mean()
    variance = float(resid @ resid) * n_groups / (n_groups - 1) / n**2
    return math.sqrt(variance)


def estimate_cost(ensemble: PathEnsemble) -> ValueEstimate:
    """Mean per-path cost with a common-noise-aware standard error.

    Reads only the ensemble: its per-path costs and each path's
    common-noise stream.  The reported error accounts for the clustering
    of paths on shared common-noise streams; it is the honest uncertainty
    of the mean even when the between-stream variation dominates the
    within-stream one.
    """
    if len(ensemble.path_costs) != ensemble.n_paths:
        raise DimensionError("ensemble", "per-path costs missing or inconsistent")
    se = cluster_standard_error(ensemble.path_costs, ensemble.common_index)
    return ValueEstimate(
        mean=float(ensemble.path_costs.mean()), std_error=se, n_paths=ensemble.n_paths
    )


def conditional_zero_worst(ensemble: PathEnsemble) -> float:
    """Largest |mean|/SE of (x - xbar) over groups, checkpoints, components.

    Zero-spread cells count as zero when exactly centered; a zero-spread
    cell off centre has no z-score, and is refused with its location.
    """
    mean = ensemble.group_dev_mean
    se = ensemble.group_dev_se
    off = (se == 0) & (mean != 0)
    if off.any():
        g, cp, _ = np.argwhere(off)[0]
        paths = int((ensemble.common_index == g).sum())
        raise CmvlqError(f"stream {g} at t = {ensemble.times[ensemble.checkpoint_indices[cp]]:.6g}: "
                         f"x - E[x|F0] has zero spread but a nonzero mean over its {paths} path(s); "
                         "too few paths per stream to test the conditional centering")
    return float((np.abs(mean) / np.where(se > 0, se, 1.0)).max())


# -- centered subproblem checks ---------------------------------------------


def _centered_loop(c, pi: OdeBackwardQuadratic, grid: TimeGrid, n_fine: int, sign=-1.0):
    """Centered closed loop, u = sign R^-1 (S' + B' Pi) z, on n_fine Euler steps."""
    tabs = _coeff_tables(c, n_fine)
    piv = _interp_table(pi.times, pi.values, np.linspace(0.0, grid.horizon, n_fine + 1)[:-1])
    gain = sign * np.linalg.solve(tabs["R"], _tr(tabs["S"]) + _tr(tabs["B"]) @ piv)
    return _closed_loop(grid.horizon / n_fine, tabs, tabs["A"], gain, c.QT)


def _breve_run(c: CoefficientSet, pi: OdeBackwardQuadratic, grid: TimeGrid, xi_centered,
               atom_probs, n_paths: int, seed: int, *, dt_target: float = 1e-3,
               plus_sign: bool = False, h_index: int | None = None):
    """Closed-loop centered system; returns per-path cost samples.

    With h_index set, also returns the per-path Bellman statistic:
    running cost to h plus the value function evaluated at the state
    there (tail noise constant included so the identity is exact for
    any diffusion).
    """
    xi_c, atom_probs = _check_initial(xi_centered, atom_probs, c.n)
    _check_centered_split(xi_c, atom_probs)
    _, n_fine, dt, times = _fine_grid(grid, dt_target)
    if h_index is not None and not (0 <= h_index <= n_fine):
        raise DimensionError("h_index", f"must lie in [0, {n_fine}]")
    loop = _centered_loop(c, pi, grid, n_fine, 1.0 if plus_sign else -1.0)
    # a draw times a zero loading adds exactly zero: skip the draws
    noisy = bool(np.any(loop.D))
    record = ()
    if h_index is not None:
        record = (h_index,)
        Pih = pi.at_time(times[h_index])
        tail_h = float(_interp_table(pi.times, pi.constant, times[h_index : h_index + 1])[0])
    sq = np.sqrt(dt)

    def worker(lo, hi):
        atoms = initial_atoms(seed, lo, hi, atom_probs)
        dw = _draw_steps(seed, lo, hi, n_fine, NOISE_IDIO, scale=sq) if noisy else None
        run, z, before = _euler(loop, xi_c[atoms], dw, lo, "centered state", record=record)
        bell = None
        if h_index is not None:
            bell = before[:, 0] + 0.5 * np.einsum("bi,ij,bj->b", z[:, 0], Pih, z[:, 0]) + tail_h
        return run, bell

    parts = [worker(lo, hi) for lo, hi in _batches(n_paths)]
    costs = np.concatenate([p[0] for p in parts])
    bells = np.concatenate([p[1] for p in parts]) if h_index is not None else None
    return costs, bells


def _value_report(label, samples, pi, xi_centered, atom_probs) -> CheckReport:
    """Sample mean against the predicted centered value, to three standard errors."""
    est = estimate_from_samples(samples)
    xi_c = np.atleast_2d(np.asarray(xi_centered, dtype=float))
    probs = np.asarray(atom_probs, dtype=float)
    initial = 0.5 * float(np.einsum("a,ai,ij,aj->", probs, xi_c, pi.values[0], xi_c))
    noise = float(pi.constant[0])
    predicted = initial + noise
    gap = est.mean - predicted
    z = gap / est.std_error if est.std_error > 0 else (0.0 if gap == 0 else np.inf)
    return CheckReport(label=label, estimate=est, predicted=predicted, noise_term=noise,
                       z_score=float(z), passed=bool(abs(gap) <= 3.0 * est.std_error))


def check_value_function(
    c: CoefficientSet,
    pi: OdeBackwardQuadratic,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    xi_centered,
    atom_probs,
    dt_target: float = 1e-3,
) -> CheckReport:
    """Simulated optimal centered cost against the quadratic value form."""
    costs, _ = _breve_run(
        c, pi, grid, xi_centered, atom_probs, n_paths, seed, dt_target=dt_target
    )
    return _value_report("value-function", costs, pi, xi_centered, atom_probs)


def check_bellman(
    c: CoefficientSet,
    pi: OdeBackwardQuadratic,
    grid: TimeGrid,
    h_index: int,
    n_paths: int,
    seed: int,
    *,
    xi_centered,
    atom_probs,
    dt_target: float = 1e-3,
) -> CheckReport:
    """Running cost to an intermediate time plus the value there.

    Under the optimal policy this matches the initial value in
    expectation; h_index indexes the simulation's fine grid.
    """
    _, bells = _breve_run(
        c, pi, grid, xi_centered, atom_probs, n_paths, seed, dt_target=dt_target, h_index=h_index
    )
    return _value_report("bellman-midpoint", bells, pi, xi_centered, atom_probs)


def check_policy_dominance(
    c: CoefficientSet,
    pi: OdeBackwardQuadratic,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    xi_centered,
    atom_probs,
    dt_target: float = 1e-3,
) -> DominanceReport:
    """Paired comparison of the sign-flipped feedback against the optimum.

    Both runs consume the same draws, so the per-path cost
    difference isolates the policy effect; the flipped sign must lose
    by more than three standard errors of the paired difference.
    """
    base, _ = _breve_run(
        c, pi, grid, xi_centered, atom_probs, n_paths, seed, dt_target=dt_target
    )
    flipped, _ = _breve_run(
        c, pi, grid, xi_centered, atom_probs, n_paths, seed, dt_target=dt_target, plus_sign=True
    )
    est = estimate_from_samples(flipped - base)
    z = est.mean / est.std_error if est.std_error > 0 else np.inf
    return DominanceReport(delta=est, z_score=float(z), passed=bool(z > 3.0))


def weak_order_check(
    c: CoefficientSet,
    pi: OdeBackwardQuadratic,
    grid: TimeGrid,
    exact_value: float,
    n_paths: int,
    seed: int,
    *,
    xi_centered,
    atom_probs,
    n_coarse: int,
) -> WeakOrderReport:
    """Euler bias decay under step halving, on strongly coupled paths.

    Three resolutions (h, h/2, h/4) consume the same underlying Gaussian
    draws, coarser increments being pair sums of finer ones, so the mean
    shift from one halving to the next is measured with the shared
    sampling error cancelled.  For a linear-in-dt bias the two shifts
    have ratio equal to the bias decay factor; weak order one puts it
    near two.  Biases against the supplied exact value are reported for
    context but carry the raw Monte Carlo error.
    """
    xi_c, atom_probs = _check_initial(xi_centered, atom_probs, c.n)
    _check_centered_split(xi_c, atom_probs)
    counts = [n_coarse, 2 * n_coarse, 4 * n_coarse]
    n_finest = counts[-1]

    def run(count, dws):
        loop = _centered_loop(c, pi, grid, count)
        return np.concatenate([
            _euler(loop, xi_c[initial_atoms(seed, lo, hi, atom_probs)], [dws[lo:hi].T], lo,
                   "centered state")[0]
            for lo, hi in _batches(n_paths)
        ])

    # the pair sums need every step at once: one whole array, one chunk per batch
    dws = idiosyncratic_normals(seed, 0, n_paths, n_finest) * np.sqrt(grid.horizon / n_finest)
    means = []
    for count in reversed(counts):
        means.append(float(run(count, dws).mean()))
        dws = dws[:, 0::2] + dws[:, 1::2]
    mean_finest, mean_mid, mean_coarse = means

    step_down = mean_coarse - mean_mid
    step_down_next = mean_mid - mean_finest
    ratio = step_down / step_down_next if step_down_next != 0 else np.inf
    return WeakOrderReport(
        bias_coarse=abs(mean_coarse - exact_value), bias_fine=abs(mean_mid - exact_value),
        step_down=float(step_down), step_down_next=float(step_down_next),
        ratio=float(ratio), passed=bool(1.6 <= ratio <= 2.6),
    )
