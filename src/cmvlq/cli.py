"""Command line front end: orchestration, CSV reports, exit codes.

Report rows carry their own thresholds so a run's pass/fail verdict can
be audited from the artifact alone.  Wall-clock figures go to stdout,
never into the CSV, which keeps reports byte-reproducible for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    BACKENDS,
    MODES,
    RunConfig,
    build_coefficients,
    format_real,
    initial_condition,
    load_config,
    with_overrides,
)
from .coeffs import PSD_TOL, bar_transform, validate_coefficients
from .decomposition import check_decomposition
from .errors import CmvlqError, ConfigError, ConvergenceError
from .fbsde import (
    assemble_optimal_control,
    build_ode_policy,
    solve_coupled_mv_fbsde,
    verify_stationarity,
)
from .lattice import build_joint_tree
from .oracle import compare_solutions, solve_qp_bar, solve_qp_breve, solve_qp_exact
from .riccati import convexity_margins
from . import sim

__all__ = ["Row", "RunResult", "run", "write_report", "main"]

PICARD_MAX_ITER = 200
MC_SIGMA_BAND = 4.0


@dataclass(frozen=True)
class Row:
    """One report line: a metric, its value, and the threshold it met."""

    metric: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class RunResult:
    status: int
    rows: tuple
    artifacts: tuple
    notes: tuple
    timings: tuple


def _info(metric: str, value: float) -> Row:
    return Row(metric, float(value), math.inf, True)


def _residual(metric: str, value: float, tol: float) -> Row:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise CmvlqError(f"residual {metric} is not a finite nonnegative number: {value}")
    return Row(metric, value, float(tol), value <= tol)


def _check(metric: str, value: float, tol: float, passed: bool) -> Row:
    return Row(metric, float(value), float(tol), bool(passed))


def _sidak_band(cells: int) -> float:
    """Sidak band for the largest of cells |z|: the family keeps one MC_SIGMA_BAND test's rate."""
    tail = -math.expm1(math.log1p(-math.erfc(MC_SIGMA_BAND / math.sqrt(2.0))) / cells)
    z = MC_SIGMA_BAND  # Newton on erfc(z / sqrt 2) = tail, convex: rises monotonically to the root
    for _ in range(50):
        z += (math.erfc(z / math.sqrt(2.0)) - tail) * math.sqrt(0.5 * math.pi) * math.exp(0.5 * z * z)
    return z


# -- per-mode row builders --------------------------------------------------


def _rows_validate(c, grid):
    rep = validate_coefficients(c, grid)
    rows = [
        _check("coeff_delta_hat", rep.delta_hat, 0.0, rep.delta_hat > 0.0),
        _check("coeff_schur_min", rep.schur_min, PSD_TOL, rep.schur_min >= -PSD_TOL),
        _check("coeff_qt_min", rep.qt_min, PSD_TOL, rep.qt_min >= -PSD_TOL),
    ]
    return rows, list(rep.messages)


def _solve_tree(c, tree, grid, xi):
    sol = assemble_optimal_control(c, tree, xi)
    stat = verify_stationarity(sol)
    dec = check_decomposition(c, sol.state, sol.control, tree, grid)
    margin_bar, margin_breve = convexity_margins(c, tree.n_atoms)
    margin_mft = min(margin_bar, margin_breve)
    scale = max(1.0, abs(sol.cost))

    rows = [
        _info("cost_total", sol.cost),
        _info("cost_mean_part", sol.bar.cost),
        _info("cost_centered_part", sol.breve.cost),
        _residual("split_residual", sol.split_residual, 1e-9 * scale),
        _residual("decomposition_residual", dec.relative_residual, 1e-10),
        _residual("stationarity_residual", stat.max_residual, 1e-10),
        _check("margin_mft", margin_mft, 0.0, margin_mft > 0.0),
        _check("margin_bar", margin_bar, 0.0, margin_bar > 0.0),
        _check("margin_breve", margin_breve, 0.0, margin_breve > 0.0),
        # the exact margins make this an identity; the row keeps the report's schema
        _check("margin_ordering_gap", 0.0, 1e-9, True),
    ]

    try:
        coupled = solve_coupled_mv_fbsde(c, tree, grid, xi, max_iter=PICARD_MAX_ITER)
    except ConvergenceError:
        rows.append(_check("picard_converged", 0.0, 0.5, False))
    else:
        picard_iters = coupled.iterations
        picard_gap = float(np.max([
            np.max(np.abs(a - b)) for a, b in zip(coupled.control.values, sol.control.values)
        ]))
        rows.append(_check("picard_converged", 1.0, 0.5, True))
        rows.append(
            _check("picard_iterations", picard_iters, PICARD_MAX_ITER,
                   picard_iters <= PICARD_MAX_ITER)
        )
        rows.append(_residual("picard_control_gap", picard_gap, 1e-6))
    return rows, sol


def _rows_solve_ode(c, cfg, xi, probs):
    policy = build_ode_policy(c, dt_target=cfg.simulation.dt_target)
    pi, ll = policy.pi, policy.l_solution
    cb = bar_transform(c)
    qt = 0.5 * (c.QT + c.QT.T)
    qbt = 0.5 * (cb.QT + cb.QT.T)
    return [
        _info("value_prediction", predicted_closed_loop_value(policy, xi, probs)),
        _residual("pi_terminal_residual", np.max(np.abs(pi.values[-1] - qt)), 1e-12),
        _residual("l_terminal_residual", np.max(np.abs(ll.values[-1] - qbt)), 1e-12),
        _residual("offset_terminal_norm", np.max(np.abs(ll.offset[-1])), 1e-12),
    ]


def _rows_oracle(c, tree, grid, xi, probs):
    qp = solve_qp_exact(c, tree, grid, xi)
    xi_mean = probs @ xi
    qp_bar = solve_qp_bar(c, tree, grid, xi_mean)
    qp_breve = solve_qp_breve(c, tree, grid, xi - xi_mean)
    scale = max(1.0, abs(qp.cost))
    split_gap = abs(qp_bar.cost + qp_breve.cost - qp.cost)
    rows = [
        _info("oracle_cost", qp.cost),
        _info("oracle_dim", qp.dim),
        _residual("oracle_gradient_sup", qp.gradient_sup, 1e-9 * scale),
        _residual("oracle_split_gap", split_gap, 1e-9 * scale),
    ]
    return rows, qp


def _rows_compare(c, tree, grid, xi, probs):
    rows, sol = _solve_tree(c, tree, grid, xi)
    oracle_rows, qp = _rows_oracle(c, tree, grid, xi, probs)
    rows += oracle_rows
    cmp = compare_solutions(c, tree, grid, sol.control, qp.control, xi)
    rows.append(_residual("oracle_cost_gap_rel", cmp.cost_rel_diff, 1e-9))
    rows.append(_residual("oracle_control_gap", cmp.control_sup_diff, 1e-8))
    return rows


def predicted_closed_loop_value(policy, xi, probs) -> float:
    """Continuous-time optimal value for the atomic initial distribution."""
    ybar = probs @ xi
    xc = xi - ybar
    z = np.append(ybar, 1.0)
    value = 0.5 * z @ policy.l_solution.table[0] @ z
    pi0 = policy.pi.values[0]
    value += 0.5 * float(np.sum(probs * np.einsum("an,nm,am->a", xc, pi0, xc)))
    value += policy.pi.constant[0]
    return float(value)


def _rows_simulate(c, grid, cfg, xi, probs):
    scfg = cfg.simulation
    policy = build_ode_policy(c, dt_target=scfg.dt_target)
    ens = sim.simulate_forward(
        policy,
        c,
        grid,
        scfg.n_paths,
        scfg.seed,
        xi=xi,
        atom_probs=probs,
        n_common=scfg.n_common_noise,
        dt_target=scfg.dt_target,
    )
    est = sim.estimate_cost(ens)
    predicted = predicted_closed_loop_value(policy, xi, probs)
    if not est.std_error > 0:
        raise CmvlqError(f"the Monte Carlo cost has zero standard error over {est.n_paths} "
                         "path(s), so its gap to the predicted value has no z-score; use more paths")
    gap_z = abs(est.mean - predicted) / est.std_error
    cz = sim.conditional_zero_worst(ens)

    dt_fine = float(ens.times[1] - ens.times[0])
    n_fine = len(ens.times) - 1
    z_w = abs(ens.increment_mean_w) / math.sqrt(dt_fine / (ens.n_paths * n_fine))
    z_w0 = abs(ens.increment_mean_w0) / math.sqrt(
        dt_fine / (scfg.n_common_noise * n_fine)
    )
    rows = [
        _info("mc_cost_mean", est.mean),
        _info("mc_cost_se", est.std_error),
        _info("mc_value_prediction", predicted),
        _residual("mc_value_gap_z", gap_z, MC_SIGMA_BAND),
        _residual("mc_conditional_zero_z", cz, _sidak_band(ens.group_dev_mean.size)),
        _residual("mc_noise_mean_z_w", z_w, MC_SIGMA_BAND),
        _residual("mc_noise_mean_z_w0", z_w0, MC_SIGMA_BAND),
    ]
    return rows, ens


def checkpoint_csv(ens) -> str:
    """Conditional-mean deviation summaries, one row per cell."""
    lines = ["time,group,component,dev_mean,dev_se"]
    times = ens.times[ens.checkpoint_indices]
    n_common, n_cp, n = ens.group_dev_mean.shape
    for i in range(n_cp):
        for g in range(n_common):
            for j in range(n):
                lines.append(
                    ",".join(
                        (
                            format_real(times[i]),
                            str(g),
                            str(j),
                            format_real(ens.group_dev_mean[g, i, j]),
                            format_real(ens.group_dev_se[g, i, j]),
                        )
                    )
                )
    return "\n".join(lines) + "\n"


# -- report emission --------------------------------------------------------


def report_csv(rows) -> str:
    lines = ["metric,value,tolerance,pass"]
    for r in rows:
        flag = "true" if r.passed else "false"
        lines.append(f"{r.metric},{format_real(r.value)},{format_real(r.tolerance)},{flag}")
    return "\n".join(lines) + "\n"


def write_report(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_csv(rows))


def run(cfg: RunConfig) -> RunResult:
    """Execute one mode end to end and write its artifacts.

    Raises CmvlqError subclasses for unusable inputs; check failures are
    reported through row flags and the exit status instead.
    """
    rows: list = []
    notes: list = []
    artifacts: list = []
    timings: list = []

    def phase(name, fn):
        start = time.perf_counter()
        result = fn()
        timings.append((name, time.perf_counter() - start))
        return result

    c = phase("build", lambda: build_coefficients(cfg))
    grid = c.grid()
    xi, probs = initial_condition(cfg)
    mode = cfg.mode

    tree_modes = {"solve", "oracle", "compare", "suite"}
    needs_tree = mode in tree_modes and not (mode == "solve" and cfg.grid.backend == "ode")
    if mode in ("oracle", "compare") and cfg.grid.backend != "tree":
        raise ConfigError([f"mode {mode} requires the tree backend"])
    tree = phase("tree", lambda: build_joint_tree(grid, probs)) if needs_tree else None

    if mode in ("validate", "suite"):
        vrows, msgs = phase("validate", lambda: _rows_validate(c, grid))
        rows += vrows
        notes += msgs
    if mode == "solve":
        if cfg.grid.backend == "ode":
            rows += phase("solve_ode", lambda: _rows_solve_ode(c, cfg, xi, probs))
        else:
            srows, _ = phase("solve", lambda: _solve_tree(c, tree, grid, xi))
            rows += srows
    if mode == "oracle":
        orows, _ = phase("oracle", lambda: _rows_oracle(c, tree, grid, xi, probs))
        rows += orows
    if mode in ("compare", "suite"):
        rows += phase("compare", lambda: _rows_compare(c, tree, grid, xi, probs))
    if mode in ("simulate", "suite"):
        if mode == "suite" and not c.deterministic:
            notes.append(
                "simulation skipped: node-dependent coefficients have no "
                "continuous-time gain tables"
            )
        else:
            mrows, ens = phase("simulate", lambda: _rows_simulate(c, grid, cfg, xi, probs))
            rows += mrows
            out_dir = Path(cfg.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            cp_path = out_dir / "simulate_checkpoints.csv"
            with open(cp_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(checkpoint_csv(ens))
            artifacts.append(str(cp_path))

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{mode}_report.csv"
    phase("report", lambda: write_report(report_path, rows))
    artifacts.insert(0, str(report_path))

    status = 0 if all(r.passed for r in rows) else 1
    return RunResult(
        status=status,
        rows=tuple(rows),
        artifacts=tuple(artifacts),
        notes=tuple(notes),
        timings=tuple(timings),
    )


# -- entry point ------------------------------------------------------------


def _flat(text: str) -> str:
    return " ; ".join(part for part in str(text).splitlines() if part)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmvlq",
        description="Decomposition solver for conditional mean-field LQ control.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a run configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override [simulation].seed")
    parser.add_argument("--paths", type=int, default=None, help="override [simulation].n_paths")
    parser.add_argument("--out", default=None, help="override the report directory")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="override [grid].backend")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = with_overrides(
            cfg,
            mode=args.mode,
            seed=args.seed,
            n_paths=args.paths,
            out=args.out,
            backend=args.backend,
        )
        result = run(cfg)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"error,config,{_flat(msg)}")
        return 2
    except CmvlqError as exc:
        print(f"error,{type(exc).__name__},{_flat(exc)}")
        return 2
    except OSError as exc:
        print(f"error,os,{_flat(exc)}")
        return 2

    for row in result.rows:
        verdict = "PASS" if row.passed else "FAIL"
        tol = "" if math.isinf(row.tolerance) else f" tol={row.tolerance:.3g}"
        print(f"[{verdict}] {row.metric} = {row.value:.10g}{tol}")
    for note in result.notes:
        print(f"note: {note}")
    for path in result.artifacts:
        print(f"wrote {path}")
    for name, seconds in result.timings:
        print(f"time {name} = {seconds:.3f}s")
    return result.status


if __name__ == "__main__":
    sys.exit(main())
