"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py -q

Every correctness check must pass on the program's answer and reject a
wrong one; the wrappers must leave the reports byte-identical; the
entry point must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

import cmvlq  # noqa: E402
from cmvlq import (  # noqa: E402
    assemble_optimal_control,
    bar_transform,
    build_joint_tree,
    solve_coupled_mv_fbsde,
    solve_qp_bar,
    solve_qp_breve,
    solve_qp_exact,
)

N_SMALL = 3


def _failing(results):
    return {c["name"] for c in results if not c["passed"]}


@pytest.fixture(scope="module")
def demo():
    p = checks.Problem(workloads.DEMO, float(workloads.DEMO_T), N_SMALL)
    c = cmvlq.make_coefficients(
        p.n, p.d, p.horizon, N_SMALL, A=p.A, F=p.F, B=p.B, S=p.S, Q=p.Q, R=p.R,
        b=p.b, D=p.D, D0=p.D0, zeta=p.zeta, varpi=p.varpi, H=p.H, QT=p.QT,
    )
    tree = build_joint_tree(c.grid(), p.probs)
    sol = assemble_optimal_control(c, tree, p.xi)
    return types.SimpleNamespace(p=p, c=c, tree=tree, sol=sol)


def _solve_rows(sol):
    return {"cost_total": sol.cost, "cost_mean_part": sol.bar.cost,
            "cost_centered_part": sol.breve.cost}


def _shift(values, amount, seed=0):
    rng = np.random.default_rng(seed)
    return [v + amount * rng.standard_normal(np.shape(v)) for v in values]


def test_tree_checks_accept_the_optimum_and_reject_wrong_answers(demo):
    picard = solve_coupled_mv_fbsde(demo.c, demo.tree, demo.c.grid(), demo.p.xi)
    u = demo.sol.control.values
    rows = _solve_rows(demo.sol)

    def run(rows, control, picard_control):
        return checks.check_tree_solve(rows, demo.tree, control, picard_control, 5,
                                       n_steps=N_SMALL)

    assert _failing(run(rows, u, picard.control.values)) == set()

    wrong_total = dict(rows, cost_total=rows["cost_total"] * (1 + 1e-7))
    assert {"cost_split_rel", "cost_vs_direct_sum_rel"} <= _failing(
        run(wrong_total, u, picard.control.values))

    off_optimum = _failing(run(rows, _shift(u, 1e-5), picard.control.values))
    assert {"stationary_dir0", "stationary_dir1", "stationary_dir2"} <= off_optimum
    assert "picard_vs_decomposed_sup" in off_optimum

    assert _failing(run(rows, u, _shift(picard.control.values, 1e-5))) == {
        "picard_vs_decomposed_sup"}


def test_stationarity_check_rejects_a_maximum(demo):
    """Negated weights make the optimum a maximum: stationary, but not above."""
    negated = {key: " ; ".join(" ".join(repr(-float(t)) for t in row.split())
                               for row in workloads.DEMO[key].split(";"))
               for key in ("Q", "R", "QT", "S", "zeta", "varpi")}
    concave = checks.Problem(dict(workloads.DEMO, **negated), demo.p.horizon, N_SMALL)
    failing = _failing(checks.stationarity_checks(concave, demo.tree,
                                                  demo.sol.control.values, 1))
    assert failing == {f"above_optimum_dir{j}" for j in range(checks.STATIONARY_DIRECTIONS)}


def test_oracle_checks_accept_the_optimum_and_reject_wrong_answers(demo):
    c, tree, p = demo.c, demo.tree, demo.p
    grid = c.grid()
    qp = solve_qp_exact(c, tree, grid, p.xi)
    mean = p.probs @ p.xi
    qp_bar = solve_qp_bar(bar_transform(c), tree, grid, mean)
    qp_breve = solve_qp_breve(c, tree, grid, p.xi - mean)
    rows = {"cost_total": demo.sol.cost, "oracle_cost": qp.cost}
    u = demo.sol.control.values

    def run(rows, qp, qp_bar):
        return checks.check_oracle_compare(rows, N_SMALL, tree, u, qp, qp_bar, qp_breve)

    assert _failing(run(rows, qp, qp_bar)) == set()
    tag = f"n{N_SMALL}_"

    costly = qp.__class__(**dict(vars(qp), cost=qp.cost * (1 + 1e-7)))
    assert {tag + "oracle_cost_rel", tag + "oracle_split_rel",
            tag + "oracle_cost_vs_direct_sum_rel",
            tag + "reported_oracle_cost_rel"} <= _failing(run(rows, costly, qp_bar))

    # a control 1e-6 off moves the cost only at second order: the sup gap catches it
    moved = cmvlq.TreeProcess(tree, _shift(qp.control.values, 1e-6), cmvlq.F_ADAPTED)
    wrong_control = qp.__class__(**dict(vars(qp), control=moved))
    assert _failing(run(rows, wrong_control, qp_bar)) == {tag + "oracle_control_sup"}

    bar_off = qp_bar.__class__(**dict(vars(qp_bar), cost=qp_bar.cost + 1e-6))
    assert _failing(run(rows, qp, bar_off)) == {tag + "oracle_split_rel"}


def test_reference_value_matches_a_closed_form():
    """Scalar, no mean terms: V = 0.5 tanh(1) E[x0^2] on T = 1."""
    scalar = {"n": "1", "d": "1", "B": "1.0", "Q": "1.0", "R": "1.0", "QT": "0.0",
              "xi_atoms": "1.2 ; -0.8", "xi_probs": "0.4 0.6"}
    p = checks.Problem(scalar, 1.0, 2)
    assert math.isclose(checks.reference_value(p), 0.5 * 0.96 * math.tanh(1.0), rel_tol=1e-10)


def test_mc_checks_reject_a_shifted_value():
    p = checks.Problem(workloads.DEMO, float(workloads.DEMO_T), 3)
    ref = checks.reference_value(p)
    rng = np.random.default_rng(3)
    groups = np.arange(16_000) % 16
    costs = ref + 0.2 * rng.standard_normal(16)[groups] + rng.standard_normal(16_000)
    costs -= costs.mean() - ref   # centred on the reference exactly
    mean, se = checks.cluster_mean_se(costs, groups)
    rows = {"mc_value_prediction": ref, "mc_cost_mean": mean}
    assert _failing(checks.check_mc_simulate(rows, costs, groups)) == set()

    shifted = costs + 5.0 * se
    rows_shifted = dict(rows, mc_cost_mean=float(shifted.mean()))
    assert _failing(checks.check_mc_simulate(rows_shifted, shifted, groups)) == {
        "mc_vs_reference_z"}
    assert _failing(checks.check_mc_simulate(
        dict(rows, mc_value_prediction=ref * (1 + 1e-5)), costs, groups)) == {
        "prediction_vs_reference_rel"}
    assert _failing(checks.check_mc_simulate(
        dict(rows, mc_cost_mean=mean + 1e-9), costs, groups)) == {"reported_mean_rel"}


def test_cluster_standard_error_counts_groups_not_paths():
    groups = np.arange(1600) % 16
    costs = groups.astype(float)   # all variation between groups
    _, se = checks.cluster_mean_se(costs, groups)
    assert math.isclose(se, np.std(np.arange(16.0), ddof=1) / 4.0, rel_tol=1e-12)


HOOKED = """
import sys
sys.path.insert(0, {here!r})
import cmvlq.cli, hooks
if {trace}:
    hooks.Tracer().install()
hooks.Capture(("fbsde.assemble_optimal_control",)).install()
marker = hooks.Marker()
marker.install()
status = cmvlq.cli.main(sys.argv[1:])
assert marker.stamp is not None
sys.exit(status)
"""


@pytest.mark.parametrize("mode,n_steps,paths", [("solve", 3, None), ("compare", 3, None),
                                                ("simulate", 3, 2000)])
def test_wrapped_runs_write_byte_identical_reports(tmp_path, mode, n_steps, paths):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(workloads.config_text(mode, n_steps, workloads.DEMO_T, workloads.DEMO,
                                         dt_target=workloads.MC_DT))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    extra = ["--seed", "4"] + (["--paths", str(paths)] if paths else [])
    outputs = {}
    for label, cmd in (
        ("plain", [sys.executable, "-m", "cmvlq.cli"]),
        ("hooked", [sys.executable, "-c", HOOKED.format(here=HERE, trace=False)]),
        ("traced", [sys.executable, "-c", HOOKED.format(here=HERE, trace=True)]),
    ):
        out = tmp_path / label
        proc = subprocess.run(cmd + [mode, "--config", str(cfg), "--out", str(out)] + extra,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs[label] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert outputs["plain"]
    assert outputs["hooked"] == outputs["plain"]
    assert outputs["traced"] == outputs["plain"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "tree_solve", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_readme_lists_every_workload_input_verbatim():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        for text in workloads.configs(name).values():
            assert f"```\n{text}```" in readme
