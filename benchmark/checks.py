"""Correctness checks, run after the timed interval of every repetition.

Each check compares a program output with a reference the benchmark
computes on its own (the tree cost by direct summation, the backward
equations by its own Runge-Kutta sweep, closed forms) or with a
property the method must have (stationarity, cost splitting, agreement
of independent routes).  Nothing is compared with stored output.

Every check is a dict ``{"name", "passed", "value", "limit"}``.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import workloads

STATIONARY_DIRECTIONS = 3
STATIONARY_EPS = 1e-3
ROUNDING = 1e-11        # relative: |J(u+ev) - J(u-ev)| at an exact optimum
REFERENCE_STEPS = 1500  # RK4 steps of the benchmark's own backward sweep


def _check(name, value, limit, passed=None):
    value = float(value)
    if passed is None:
        passed = value <= limit
    return {"name": name, "passed": bool(passed and math.isfinite(value)),
            "value": value, "limit": float(limit)}


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def report_rows(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


# -- independent problem data and tree cost --------------------------------


class Problem:
    """Constant coefficients read from the workload's own numbers."""

    def __init__(self, coeffs: dict, horizon: float, n_steps: int):
        n, d = int(coeffs["n"]), int(coeffs["d"])

        def get(key, shape):
            if key not in coeffs:
                return np.zeros(shape)
            return workloads.parse_matrix(coeffs[key]).reshape(shape)

        self.n, self.d = n, d
        self.horizon, self.n_steps = float(horizon), int(n_steps)
        self.A, self.F, self.H = get("A", (n, n)), get("F", (n, n)), get("H", (n, n))
        self.Q, self.QT = get("Q", (n, n)), get("QT", (n, n))
        self.B, self.S = get("B", (n, d)), get("S", (n, d))
        self.R = get("R", (d, d))
        self.b, self.D, self.D0 = get("b", (n,)), get("D", (n,)), get("D0", (n,))
        self.zeta, self.varpi = get("zeta", (n,)), get("varpi", (d,))
        self.xi = workloads.parse_matrix(coeffs["xi_atoms"]).reshape(-1, n)
        self.probs = workloads.parse_matrix(coeffs["xi_probs"]).ravel()


def _conditional_mean(x, probs, prefix):
    """E[x | common-noise prefix], expanded back onto the nodes."""
    weight = np.bincount(prefix, weights=probs)
    cols = [np.bincount(prefix, weights=probs * x[:, j]) / weight for j in range(x.shape[1])]
    return np.stack(cols, axis=1)[prefix]


def tree_cost(p: Problem, tree, controls) -> float:
    """Mean-field cost of node controls by direct summation over the tree.

    Uses only the tree's documented layout: children of node i sit at
    4i..4i+3, with the increments that lead into them in last_dw0 and
    last_dw, node probabilities in probs(k) and common-noise prefix ids
    in w0_of_node.
    """
    dt = p.horizon / p.n_steps
    x = p.xi[tree.atom_of_node[0]]
    total = 0.0
    for k in range(p.n_steps):
        probs = tree.probs(k)
        xbar = _conditional_mean(x, probs, tree.w0_of_node[k])
        e = x - xbar @ p.H.T
        u = np.asarray(controls[k], dtype=float)
        running = (
            np.einsum("ni,ij,nj->n", e, p.Q, e)
            + 2.0 * np.einsum("ni,ij,nj->n", e, p.S, u)
            + np.einsum("ni,ij,nj->n", u, p.R, u)
            + 2.0 * e @ p.zeta
            + 2.0 * u @ p.varpi
        )
        total += dt * float(probs @ running)
        drift = x @ p.A.T + xbar @ p.F.T + u @ p.B.T + p.b
        x = (np.repeat(x + dt * drift, 4, axis=0)
             + np.outer(tree.last_dw[k + 1], p.D)
             + np.outer(tree.last_dw0[k + 1], p.D0))
    probs = tree.probs(p.n_steps)
    e = x - _conditional_mean(x, probs, tree.w0_of_node[p.n_steps]) @ p.H.T
    total += float(probs @ np.einsum("ni,ij,nj->n", e, p.QT, e))
    return 0.5 * total


def stationarity_checks(p: Problem, tree, control, seed) -> list:
    """J(u + e v) - J(u - e v) vanishes and both exceed J(u), per direction."""
    dt = p.horizon / p.n_steps
    j0 = tree_cost(p, tree, control)
    scale = max(1.0, abs(j0))
    out = []
    for j in range(STATIONARY_DIRECTIONS):
        rng = np.random.default_rng([seed, 31, j])
        v = [rng.standard_normal(np.shape(u)) for u in control]
        norm = math.sqrt(sum(dt * float(tree.probs(k) @ (vk * vk).sum(axis=1))
                             for k, vk in enumerate(v)))
        step = [STATIONARY_EPS * vk / norm for vk in v]
        jp = tree_cost(p, tree, [u + s for u, s in zip(control, step)])
        jm = tree_cost(p, tree, [u - s for u, s in zip(control, step)])
        out.append(_check(f"stationary_dir{j}", abs(jp - jm) / scale, ROUNDING))
        rise = min(jp, jm) - j0
        out.append(_check(f"above_optimum_dir{j}", rise / scale, 0.0, passed=rise > 0.0))
    return out


def _sup_gap(a_values, b_values):
    return max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
               for a, b in zip(a_values, b_values))


# -- backward equations, integrated apart from the program ------------------


def reference_value(p: Problem, steps: int = REFERENCE_STEPS) -> float:
    """Optimal value from the Riccati, offset and noise equations.

    The conditional-mean problem has drift A+F and (I-H)-transformed
    weights; the centered one the original weights; the value is the
    mean part at the mean initial state, the centered quadratic form
    averaged over the atoms, and the idiosyncratic-noise constant.
    """
    ih = np.eye(p.n) - p.H
    Ab = p.A + p.F
    Qb, Sb, zb, QbT = ih.T @ p.Q @ ih, ih.T @ p.S, ih.T @ p.zeta, ih.T @ p.QT @ ih
    Rinv = np.linalg.inv(p.R)

    def riccati(P, A, Q, S):
        W = P @ p.B + S
        return -(A.T @ P + P @ A + Q - W @ Rinv @ W.T)

    def rhs(y):
        Pi, L, lv, _, _ = y
        W = L @ p.B + Sb
        w = p.B.T @ lv + p.varpi
        return (
            riccati(Pi, p.A, p.Q, p.S),
            riccati(L, Ab, Qb, Sb),
            -(Ab.T @ lv + L @ p.b + zb - W @ Rinv @ w),
            -(p.b @ lv + 0.5 * p.D0 @ L @ p.D0 - 0.5 * w @ Rinv @ w),
            -0.5 * p.D @ Pi @ p.D,
        )

    def axpy(y, h, k):
        return tuple(a - h * b for a, b in zip(y, k))

    y = (p.QT.copy(), QbT, np.zeros(p.n), 0.0, 0.0)
    h = p.horizon / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(axpy(y, 0.5 * h, k1))
        k3 = rhs(axpy(y, 0.5 * h, k2))
        k4 = rhs(axpy(y, h, k3))
        y = tuple(a - h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    Pi, L, lv, const, noise = y
    ybar = p.probs @ p.xi
    xc = p.xi - ybar
    centered = 0.5 * float(np.einsum("a,ai,ij,aj->", p.probs, xc, Pi, xc))
    return float(0.5 * ybar @ L @ ybar + lv @ ybar + const + centered + noise)


def cluster_mean_se(samples, groups):
    """Mean and its cluster-robust standard error over common-noise groups."""
    samples = np.asarray(samples, dtype=float)
    groups = np.asarray(groups)
    n = len(samples)
    mean = float(samples.mean())
    resid = np.bincount(groups, weights=samples - mean)
    resid = resid[np.bincount(groups) > 0]
    g = len(resid)
    return mean, math.sqrt(g / (g - 1) * float(resid @ resid)) / n


# -- per workload ------------------------------------------------------------


def check_tree_solve(rows, tree, decomposed, picard, seed,
                     n_steps=workloads.TREE_SOLVE_N) -> list:
    p = Problem(workloads.DEMO, float(workloads.DEMO_T), n_steps)
    total = rows["cost_total"]
    scale = max(1.0, abs(total))
    split = abs(total - rows["cost_mean_part"] - rows["cost_centered_part"]) / scale
    out = [
        _check("picard_vs_decomposed_sup", _sup_gap(picard, decomposed), 1e-6),
        _check("cost_split_rel", split, 1e-9),
        _check("cost_vs_direct_sum_rel", _rel(tree_cost(p, tree, decomposed), total), 1e-9),
    ]
    return out + stationarity_checks(p, tree, decomposed, seed)


def check_oracle_compare(rows, n_steps, tree, decomposed, qp, qp_bar, qp_breve) -> list:
    p = Problem(workloads.DEMO, float(workloads.DEMO_T), n_steps)
    tag = f"n{n_steps}_"
    split = abs(qp_bar.cost + qp_breve.cost - qp.cost) / max(1.0, abs(qp.cost))
    return [
        _check(tag + "oracle_cost_rel", _rel(qp.cost, rows["cost_total"]), 1e-9),
        _check(tag + "oracle_control_sup", _sup_gap(qp.control.values, decomposed), 1e-8),
        _check(tag + "oracle_split_rel", split, 1e-9),
        _check(tag + "oracle_cost_vs_direct_sum_rel",
               _rel(tree_cost(p, tree, qp.control.values), qp.cost), 1e-9),
        _check(tag + "reported_oracle_cost_rel", _rel(rows["oracle_cost"], qp.cost), 1e-15),
    ]


def check_mc_simulate(rows, path_costs, groups) -> list:
    p = Problem(workloads.DEMO, float(workloads.DEMO_T), 3)
    ref = reference_value(p)
    mean, se = cluster_mean_se(path_costs, groups)
    return [
        _check("prediction_vs_reference_rel", _rel(rows["mc_value_prediction"], ref), 1e-6),
        _check("reported_mean_rel", _rel(rows["mc_cost_mean"], mean), 1e-12),
        _check("mc_vs_reference_z", abs(mean - ref) / se, 4.0),
    ]


def run(workload, work_dir, seed, outputs) -> list:
    out_dir = os.path.join(work_dir, "out")
    if workload == "tree_solve":
        rows = report_rows(os.path.join(out_dir, "n8", "solve_report.csv"))
        return check_tree_solve(
            rows,
            outputs["lattice.build_joint_tree"][-1],
            outputs["fbsde.assemble_optimal_control"][-1].control.values,
            outputs["fbsde.solve_coupled_mv_fbsde"][-1].control.values,
            seed,
        )
    if workload == "oracle_compare":
        out = []
        for i, n_steps in enumerate(workloads.ORACLE_DEPTHS):
            rows = report_rows(os.path.join(out_dir, f"n{n_steps}", "compare_report.csv"))
            out += check_oracle_compare(
                rows, n_steps,
                outputs["lattice.build_joint_tree"][i],
                outputs["fbsde.assemble_optimal_control"][i].control.values,
                outputs["oracle.solve_qp_exact"][i],
                outputs["oracle.solve_qp_bar"][i],
                outputs["oracle.solve_qp_breve"][i],
            )
        return out
    if workload == "mc_simulate":
        rows = report_rows(os.path.join(out_dir, "mc", "simulate_report.csv"))
        ens = outputs["sim.simulate_forward"][-1]
        return check_mc_simulate(rows, ens.path_costs, ens.common_index)
    raise ValueError(f"unknown workload {workload!r}")
