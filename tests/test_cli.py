"""Configuration parsing, report emission, and command-line behavior."""

import math
import re
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers_dense_qp import dense_margins

import cmvlq.cli as cli
import cmvlq.fbsde as fbsde
import cmvlq.riccati as riccati
from cmvlq.cli import main, report_csv, run
from cmvlq.coeffs import Coefficient
from cmvlq.config import (
    RunConfig,
    build_coefficients,
    initial_condition,
    load_config,
    parse_config,
    with_overrides,
)
from cmvlq.errors import CmvlqError, ConfigError
from cmvlq.lattice import F_ADAPTED, TreeProcess, build_joint_tree

DEMOS = Path(__file__).resolve().parents[1] / "demos"
NODE_DEPENDENT_CONFIG = DEMOS / "node_dependent.cfg"


MINIMAL = """
[grid]
N = 2
T = 1.0

[coefficients]
n = 1
d = 1
Q = 1.0
R = 1.0
QT = 1.0
"""

FULL_2X1 = """
[run]
mode = compare
out = {out}

[grid]
N = 3
T = 0.75

[coefficients]
n = 2
d = 1
A = -0.4 0.2 ; 0.1 -0.6
F = 0.15 0.0 ; 0.05 0.1
B = 1.0 ; 0.5
H = 0.4 0.1 ; 0.0 0.3
Q = 1.2 0.1 ; 0.1 0.9
R = 0.8
QT = 1.0 0.0 ; 0.0 1.4
S = 0.05 ; 0.02
b = 0.1 -0.05
D = 0.3 0.2
D0 = 0.25 0.1
zeta = 0.02 0.01
varpi = 0.03
xi_atoms = 0.9 -0.4 ; 0.2 0.6
xi_probs = 0.35 0.65

[simulation]
n_paths = 64
seed = 7
n_common_noise = 4
dt_target = 0.02
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "suite"
    assert cfg.out == "out"
    assert cfg.grid.backend == "tree"
    assert cfg.simulation.n_paths == 1000
    assert cfg.simulation.seed == 0
    assert cfg.simulation.n_common_noise == 16
    assert cfg.simulation.dt_target == 1e-3
    xi, probs = initial_condition(cfg)
    assert xi.shape == (1, 1) and xi[0, 0] == 0.0
    assert probs.tolist() == [1.0]


def test_missing_weight_named_with_section():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("R = 1.0\n", ""))
    assert any("[coefficients].R" in m for m in err.value.errors)


def test_all_errors_reported_with_line_numbers():
    bad = """
[run]
mode = explore

[grid]
T = -1
backend = gpu

[coefficients]
n = 2
d = 1
A = 1 2 ; 3
Q = 1 0 ; 0 1
mystery = 5

[simulation]
n_paths = 0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = err.value.errors
    assert len(msgs) >= 7
    for needle in (
        "[run].mode",
        "[grid].N: required key missing",
        "[grid].T",
        "[grid].backend",
        "[coefficients].A: ragged rows",
        "[coefficients].mystery: unknown key",
        "[simulation].n_paths",
    ):
        assert any(needle in m for m in msgs), needle
    lines = [int(m[5:m.index(":")]) for m in msgs if m.startswith("line ")]
    assert lines == sorted(lines)


def test_duplicates_and_strays_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("n = 1\n[grid]\nN = 2\nN = 3\nT = 1\n[grid]\n" + MINIMAL.split("[grid]")[1].split("[coefficients]")[0] + "[coefficients]\nn = 1\nd = 1\nQ = 1\nR = 1\nQT = 1\n")
    text = "\n".join(err.value.errors)
    assert "outside any section" in text
    assert "duplicate key" in text
    assert "duplicate section" in text


def test_initial_condition_variants():
    cfg = parse_config(MINIMAL + "\n[run]\nmode = validate\n")
    # single-vector form becomes one atom with weight one
    single = parse_config(MINIMAL.replace("QT = 1.0", "QT = 1.0\nxi = 0.5"))
    xi, probs = initial_condition(single)
    assert xi.tolist() == [[0.5]] and probs.tolist() == [1.0]
    # atoms without weights default to uniform
    uniform = parse_config(
        MINIMAL.replace("QT = 1.0", "QT = 1.0\nxi_atoms = 0.5 ; -0.5")
    )
    xi, probs = initial_condition(uniform)
    assert probs.tolist() == [0.5, 0.5]
    with pytest.raises(ConfigError, match="not both"):
        parse_config(MINIMAL.replace("QT = 1.0", "QT = 1.0\nxi = 1\nxi_atoms = 1"))
    with pytest.raises(ConfigError, match="sum to"):
        parse_config(
            MINIMAL.replace("QT = 1.0", "QT = 1.0\nxi_atoms = 0.5 ; -0.5\nxi_probs = 0.7 0.6")
        )
    assert cfg.mode == "validate"


def test_tree_capacity_checked_at_parse_time():
    big = MINIMAL.replace("N = 2", "N = 12")
    with pytest.raises(ConfigError, match="at most 10"):
        parse_config(big)
    cfg = parse_config(big.replace("N = 12", "N = 12\nbackend = ode"))
    assert cfg.grid.n_steps == 12


def test_slope_keys_make_node_dependent_sets():
    text = MINIMAL.replace("Q = 1.0", "Q = 1.0\nA = -0.5\nA_slope = 0.1")
    c = build_coefficients(parse_config(text))
    assert not c.deterministic
    assert build_coefficients(parse_config(MINIMAL)).deterministic


def test_override_helper_validates():
    cfg = parse_config(MINIMAL)
    cfg = with_overrides(cfg, mode="oracle", seed=3, n_paths=10, out="x", backend="ode")
    assert (cfg.mode, cfg.simulation.seed, cfg.simulation.n_paths) == ("oracle", 3, 10)
    assert cfg.out == "x" and cfg.grid.backend == "ode"
    with pytest.raises(ConfigError):
        with_overrides(cfg, seed=-1)
    with pytest.raises(ConfigError):
        with_overrides(cfg, n_paths=0)


def test_report_csv_format():
    rows = (
        cli._info("answer", 1.0 / 3.0),
        cli._check("bad", 2.0, 1.0, False),
    )
    text = report_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "metric,value,tolerance,pass"
    assert lines[1] == "answer,0.33333333333333331,inf,true"
    assert lines[2] == "bad,2,1,false"
    assert text.endswith("\n")


def test_residual_rows_must_be_finite():
    from cmvlq.errors import CmvlqError

    with pytest.raises(CmvlqError, match="finite"):
        cli._residual("x", math.nan, 1.0)
    with pytest.raises(CmvlqError, match="finite"):
        cli._residual("x", -1e-3, 1.0)


def test_picard_gap_row_refuses_a_nan(monkeypatch):
    cfg = parse_config(FULL_2X1.format(out="ignored"))
    c, (xi, probs) = build_coefficients(cfg), initial_condition(cfg)
    grid = c.grid()
    real = cli.solve_coupled_mv_fbsde

    def last_step_nan(*args, **kwargs):
        sol = real(*args, **kwargs)
        values = [v.copy() for v in sol.control.values]
        values[-1][0, 0] = np.nan
        return replace(sol, control=TreeProcess(sol.control.tree, values, F_ADAPTED))

    monkeypatch.setattr(cli, "solve_coupled_mv_fbsde", last_step_nan)
    with pytest.raises(CmvlqError, match="picard_control_gap"):
        cli._solve_tree(c, build_joint_tree(grid, probs), grid, xi)


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_validate_mode_passes_on_good_instance(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    status = main(["validate", "--config", path, "--out", str(tmp_path / "o")])
    assert status == 0
    report = (tmp_path / "o" / "validate_report.csv").read_text()
    assert report.splitlines()[0] == "metric,value,tolerance,pass"
    assert "coeff_delta_hat" in report
    assert capsys.readouterr().out.count("[PASS]") == 3


def test_validate_mode_fails_on_indefinite_mixed_weight(tmp_path):
    text = MINIMAL.replace("Q = 1.0", "Q = 0.0\nS = 1.0")
    status = main(["validate", "--config", _write(tmp_path, text),
                   "--out", str(tmp_path / "o")])
    assert status == 1
    report = (tmp_path / "o" / "validate_report.csv").read_text()
    assert "coeff_schur_min,-1,1e-10,false" in report


def test_compare_mode_reports_oracle_gaps_under_threshold(tmp_path):
    path = _write(tmp_path, FULL_2X1.format(out=str(tmp_path / "o")))
    status = main(["compare", "--config", path])
    assert status == 0
    rows = {}
    for line in (tmp_path / "o" / "compare_report.csv").read_text().splitlines()[1:]:
        name, value, tol, flag = line.split(",")
        rows[name] = (float(value), float(tol), flag)
    for name in ("oracle_cost_gap_rel", "oracle_control_gap"):
        value, tol, flag = rows[name]
        assert flag == "true" and value <= tol
    assert rows["picard_converged"][0] == 1.0
    assert rows["stationarity_residual"][0] <= 1e-10


def test_suite_reports_are_byte_identical_across_runs(tmp_path):
    base = FULL_2X1.format(out="ignored")
    path = _write(tmp_path, base)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["suite", "--config", path, "--seed", "42", "--out", out1]) == 0
    assert main(["suite", "--config", path, "--seed", "42", "--out", out2]) == 0
    for name in ("suite_report.csv", "simulate_checkpoints.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    header = (tmp_path / "a" / "simulate_checkpoints.csv").read_text().splitlines()[0]
    assert header == "time,group,component,dev_mean,dev_se"


def test_seed_override_changes_monte_carlo_rows(tmp_path):
    # 48 paths on 4 streams: correct code fails some report gate on a few
    # per cent of seeds at this size, so only an error (exit 2) is refused
    path = _write(tmp_path, FULL_2X1.format(out="ignored"))
    outs = []
    for seed, name in ((1, "s1"), (2, "s2")):
        out = str(tmp_path / name)
        assert main(["simulate", "--config", path, "--seed", str(seed),
                     "--paths", "48", "--out", out]) != 2
        text = (tmp_path / name / "simulate_report.csv").read_text()
        row = [l for l in text.splitlines() if l.startswith("mc_cost_mean,")][0]
        outs.append(row)
    assert outs[0] != outs[1]


def test_config_errors_exit_2_with_machine_readable_lines(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL.replace("R = 1.0\n", ""))
    assert main(["solve", "--config", path]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error,config,")
    assert "[coefficients].R" in out


def test_non_symmetric_control_weight_exits_2_naming_it(tmp_path, capsys):
    # d = 2 with an upper-triangular R: a bad input, named as such, not a
    # solve whose stationarity and Picard rows fail
    text = FULL_2X1.format(out=tmp_path / "o")
    for old, new in (("N = 3", "N = 4"), ("d = 1", "d = 2"), ("B = 1.0 ; 0.5", "B = 1.0 0.0 ; 0.5 1.0"),
                     ("S = 0.05 ; 0.02", "S = 0.05 0 ; 0.02 0"), ("varpi = 0.03", "varpi = 0.03 0.0"),
                     ("R = 0.8", "R = 0.8 0.5 ; 0.0 0.8")):
        assert old in text
        text = text.replace(old, new)
    assert main(["solve", "--config", _write(tmp_path, text)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error,config,line ")
    assert "[coefficients].R: not symmetric (max deviation 5.000e-01)" in out


@pytest.mark.parametrize("key,value", [("Q", "1.2 0.1 ; 0.2 0.9"), ("QT", "1.0 2e-12 ; 0.0 1.4"),
                                       ("Q_slope", "0.2 0.0 ; 0.1 0.1"), ("R_slope", "0.1 0.2 ; 0.0 0.1")],
                         ids=["Q", "QT", "Q_slope", "R_slope"])
def test_parser_refuses_non_symmetric_weights(key, value):
    text = FULL_2X1.format(out="o")
    for old, new in (("d = 1", "d = 2"), ("B = 1.0 ; 0.5", "B = 1.0 0.0 ; 0.5 1.0"),
                     ("S = 0.05 ; 0.02", "S = 0.05 0 ; 0.02 0"), ("varpi = 0.03", "varpi = 0.03 0.0"),
                     ("R = 0.8", "R = 0.8 0.1 ; 0.1 0.8")):
        text = text.replace(old, new)
    parse_config(text)
    text = re.sub(rf"^{key} = .*$", "", text, flags=re.M).replace("xi_atoms", f"{key} = {value}\nxi_atoms")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.errors) == 1
    assert f"[coefficients].{key}: not symmetric" in err.value.errors[0]


@pytest.mark.parametrize("mode", ["solve", "simulate"])
def test_atom_weights_off_by_more_than_the_solvers_allow_are_a_config_error(tmp_path, capsys, mode):
    # the parser reads the tree's and the simulation's own bound on the sum
    text = FULL_2X1.format(out=tmp_path / "o").replace("xi_probs = 0.35 0.65",
                                                       "xi_probs = 0.3500000001 0.65")
    assert main([mode, "--config", _write(tmp_path, text), "--paths", "16"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error,config,line ")
    assert "[coefficients].xi_probs: atom weights sum to 1.0000000001, need 1" in out


def test_solver_errors_exit_2(tmp_path, capsys):
    # node-dependent coefficients have no continuous-time tables
    text = MINIMAL.replace("Q = 1.0", "Q = 1.0\nA = -0.5\nA_slope = 0.1")
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 2
    assert "error,NotDeterministicError," in capsys.readouterr().out
    assert main(["oracle", "--config", _write(tmp_path, MINIMAL),
                 "--backend", "ode"]) == 2
    assert "requires the tree backend" in capsys.readouterr().out


def test_riccati_blow_up_exits_2(tmp_path, capsys):
    text = MINIMAL.replace("T = 1.0", "T = 40.0\nbackend = ode", 1).replace(
        "Q = 1.0", "Q = -1.0\nA = 0.2\nB = 1.0"
    ) + "\n[simulation]\ndt_target = 0.04\n"
    with np.errstate(all="ignore"):
        status = main(["simulate", "--config", _write(tmp_path, text), "--paths", "10",
                       "--out", str(tmp_path / "o")])
    assert status == 2
    assert "error,FiniteEscapeError,Riccati solution blew up" in capsys.readouterr().out


def test_non_convex_cost_is_refused_as_such_not_blamed_on_r(tmp_path, capsys):
    # R = 0.8 is positive definite; the large negative state weight makes the
    # one-step control matrix indefinite, so the cost is not convex in u
    text = FULL_2X1.format(out=tmp_path / "o").replace("Q = 1.2 0.1", "Q = -8 0.1")
    assert main(["solve", "--config", _write(tmp_path, text)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error,SingularSystemError,one-step control matrix")
    assert "is not positive definite at step 0, so the cost is not convex in the control" in out
    assert "control weight" not in out


def test_non_convex_refusal_quotes_the_exact_margin(tmp_path, capsys):
    # the quoted margin is the smallest eigenvalue of the cost's Hessian
    text = FULL_2X1.format(out=tmp_path / "o").replace("Q = 1.2 0.1", "Q = -8 0.1")
    assert main(["solve", "--config", _write(tmp_path, text)]) == 2
    out = capsys.readouterr().out.strip()
    prefix, quoted = out.rsplit("the exact convexity margin of the centered problem is ", 1)
    assert prefix.startswith("error,SingularSystemError,one-step control matrix")
    cfg = parse_config(text)
    c = build_coefficients(cfg)
    _, probs = initial_condition(cfg)
    full, _, breve = dense_margins(c, build_joint_tree(c.grid(), probs), c.grid())
    assert breve == pytest.approx(full, rel=1e-12) and full < 0.0
    assert float(quoted) == pytest.approx(full, rel=1e-11, abs=0)
    assert float(quoted) == pytest.approx(-0.039060362406, rel=1e-11)


@pytest.mark.parametrize("config", ["full", "node_dependent"])
def test_solve_report_does_not_depend_on_the_seed(tmp_path, config):
    # the margins are exact, so no report row draws random numbers
    path = _write(tmp_path, FULL_2X1.format(out="ignored")) if config == "full" else str(NODE_DEPENDENT_CONFIG)
    reports = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["solve", "--config", path, "--seed", str(seed), "--out", str(out)]) == 0
        reports.append((out / "solve_report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_compare_on_zero_data_returns_the_zero_control(tmp_path):
    # zero initial state and no affine terms: every gradient at u = 0
    # vanishes, here at an oracle dimension of 5,461
    out = tmp_path / "o"
    path = _write(tmp_path, MINIMAL.replace("N = 2", "N = 7"))
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    report = (out / "compare_report.csv").read_text().splitlines()
    rows = dict(line.split(",")[:2] for line in report)
    assert float(rows["oracle_cost"]) == 0.0
    assert rows["oracle_dim"] == "5461"


def test_suite_skips_simulation_for_random_coefficients(tmp_path, capsys):
    text = MINIMAL.replace("Q = 1.0", "Q = 1.0\nA = -0.5\nA_slope = 0.1")
    out = str(tmp_path / "o")
    status = main(["suite", "--config", _write(tmp_path, text), "--out", out])
    assert status == 0
    stdout = capsys.readouterr().out
    assert "simulation skipped" in stdout
    report = (tmp_path / "o" / "suite_report.csv").read_text()
    assert "mc_cost_mean" not in report
    assert "oracle_cost_gap_rel" in report


def test_ode_backend_solve_reports_terminal_consistency(tmp_path):
    path = _write(tmp_path, FULL_2X1.format(out=str(tmp_path / "o")))
    assert main(["solve", "--config", path, "--backend", "ode"]) == 0
    report = (tmp_path / "o" / "solve_report.csv").read_text()
    for name in ("value_prediction", "pi_terminal_residual", "l_terminal_residual"):
        assert name in report


def test_run_result_carries_solve_report(tmp_path):
    cfg = parse_config(FULL_2X1.format(out=str(tmp_path / "o")))
    result = run(cfg)
    assert result.status in (0, 1)
    rows = {r.metric: r.value for r in result.rows}
    assert rows["split_residual"] <= 1e-9
    assert "oracle_cost_gap_rel" in rows
    assert rows["picard_iterations"] <= 200
    assert dict(result.timings)  # wall clock stays out of the CSV
    report_text = (tmp_path / "o" / "compare_report.csv").read_text()
    assert "time" not in report_text.split("\n", 1)[0]
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("mode", ["solve", "compare"])
def test_solutions_form_the_adjoint_by_products_only_on_read(monkeypatch, tmp_path, mode):
    # the costate and the noise loadings are cached properties that no
    # report reads: the solutions a run holds keep none of them
    captured, assemble = [], cli.assemble_optimal_control
    monkeypatch.setattr(cli, "assemble_optimal_control",
                        lambda *args, **kwargs: captured.append(assemble(*args, **kwargs)) or captured[-1])
    cfg = parse_config(FULL_2X1.format(out=str(tmp_path / "o")))
    assert run(with_overrides(cfg, mode=mode)).status == 0
    assert len(captured) == 1
    for part in (captured[0].bar, captured[0].breve):
        assert not {"costate", "noise_load_w", "noise_load_w0"} & set(vars(part))
        assert part.costate.values  # formed on read, then kept
        assert "costate" in vars(part)


def test_solve_report_does_not_depend_on_blas_threads(tmp_path):
    # at N = 7 the tree's long dot products are long enough for a threaded
    # BLAS to split them; the package caps BLAS at one thread by default
    path = _write(tmp_path, FULL_2X1.format(out="ignored").replace("N = 3", "N = 7"))
    src = str(Path(cli.__file__).resolve().parents[1])
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    reports = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-m", "cmvlq.cli", "solve", "--config", path, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=600,
        )
        reports.append((out / "solve_report.csv").read_bytes())
    assert reports[0] == reports[1]


MC_SIMULATE = (
    FULL_2X1.format(out="ignored")
    .replace("mode = compare", "mode = simulate")
    .replace("n_paths = 64", "n_paths = 40000")
    .replace("n_common_noise = 4", "n_common_noise = 16")
    .replace("dt_target = 0.02", "dt_target = 0.002")
)


def test_conditional_zero_band_is_sidak_over_the_cells():
    assert cli._sidak_band(1) == pytest.approx(cli.MC_SIGMA_BAND, rel=1e-12)
    # 16 groups x 4 checkpoints x 2 components at the family rate of one 4-sigma test
    assert cli._sidak_band(128) == pytest.approx(5.0283, abs=1e-4)


def test_conditional_zero_band_passes_a_correct_run_the_fixed_band_failed(tmp_path):
    # seed 675 draws a largest cell z of 4.14 over 128 cells on correct code.
    # A scan of seeds 600-899 on the sign draws found 604 (4.28), 675 (4.14),
    # 783 (4.14) and 818 (4.01) between 4 and the Sidak band 5.03; seed 604's
    # run fails mc_value_gap_z at 5.08, so the first run that passes is 675's
    cfg = parse_config(MC_SIMULATE.replace("out = ignored", f"out = {tmp_path}"))
    result = run(with_overrides(cfg, seed=675))
    row = {r.metric: r for r in result.rows}["mc_conditional_zero_z"]
    assert cli.MC_SIGMA_BAND < row.value < row.tolerance
    assert row.passed and result.status == 0


def test_conditional_zero_band_catches_an_injected_bias(tmp_path, monkeypatch):
    real = cli.sim.simulate_forward

    def biased(*args, **kwargs):
        # the particles' conditional mean off the companion's after t = 0 by
        # six standard errors of the least resolved cell
        ens = real(*args, **kwargs)
        dev = ens.group_dev_mean.copy()
        dev[:, 1:, 0] += 6.0 * ens.group_dev_se[:, 1:, 0].max()
        return replace(ens, group_dev_mean=dev)

    cfg = parse_config(MC_SIMULATE.replace("out = ignored", f"out = {tmp_path}"))
    cfg = with_overrides(cfg, n_paths=4000, seed=5)
    row = {r.metric: r for r in run(cfg).rows}["mc_conditional_zero_z"]
    assert row.passed
    monkeypatch.setattr(cli.sim, "simulate_forward", biased)
    result = run(cfg)
    row = {r.metric: r for r in result.rows}["mc_conditional_zero_z"]
    # the fixed band of 4 would catch it, and so does the Sidak band
    assert cli.MC_SIGMA_BAND < row.tolerance < row.value
    assert not row.passed and result.status == 1


def test_conditional_zero_row_sees_particles_that_lose_their_mean_field_term(tmp_path, monkeypatch):
    # the particles run without F x_bar while the companion keeps it (the
    # conditional-mean problem's own set carries F inside its drift A + F):
    # the row fails only because each stream's offset is run from the
    # particles' own tables, never copied from the companion path
    cfg = parse_config(MC_SIMULATE.replace("out = ignored", f"out = {tmp_path}"))
    row = {r.metric: r for r in run(cfg).rows}["mc_conditional_zero_z"]
    assert row.passed
    tables = cli.sim._coeff_tables

    def without_f(c, n_fine):
        tabs = tables(c, n_fine)
        return {**tabs, "F": np.zeros_like(tabs["F"])}

    monkeypatch.setattr(cli.sim, "_coeff_tables", without_f)
    result = run(cfg)
    row = {r.metric: r for r in result.rows}["mc_conditional_zero_z"]
    assert row.value > row.tolerance and not row.passed and result.status == 1


@pytest.mark.parametrize("paths, cause", [
    ("1", "error,CmvlqError,the Monte Carlo cost has zero standard error over 1 path(s)"),
    # two paths a stream: both paths of stream 0 start from the same atom, so
    # the t = 0 cell has no spread but sits off the mean initial state
    ("32", "error,CmvlqError,stream 0 at t = 0: x - E[x|F0] has zero spread but a nonzero "
           "mean over its 2 path(s); too few paths per stream"),
], ids=["one_path", "two_paths_per_stream"])
def test_zero_monte_carlo_spread_exits_2_naming_its_cause(tmp_path, capsys, paths, cause):
    text = MC_SIMULATE.replace("out = ignored", f"out = {tmp_path / 'o'}")
    assert main(["simulate", "--config", _write(tmp_path, text), "--paths", paths]) == 2
    assert capsys.readouterr().out.startswith(cause)


@pytest.mark.parametrize("name", ["mean_field", "node_dependent"])
def test_stationarity_catches_a_wrong_conditional_mean_drift(tmp_path, monkeypatch, name):
    # each part is stationary for its own coefficients, so a check of the
    # parts alone passed this fault (1.2e-16 on mean_field, 1.7e-16 on
    # node_dependent); the assembled control is checked on the full set
    text = (DEMOS / f"{name}.cfg").read_text()
    path = _write(tmp_path, re.sub(r"(?m)^N = \d+$", "N = 6", text))
    transform = fbsde.bar_transform

    def wrong_drift(c):
        p = transform(c)
        A = p.A
        return replace(p, A=Coefficient(A.base * (1.0 + 1e-6),
                                        None if A.slope is None else A.slope * (1.0 + 1e-6)))

    monkeypatch.setattr(fbsde, "bar_transform", wrong_drift)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    rows = dict(line.split(",", 1) for line in
                (tmp_path / "o" / "solve_report.csv").read_text().splitlines()[1:])
    assert rows["stationarity_residual"].endswith(",false")


def test_gates_catch_a_dropped_common_noise_covariance(tmp_path, monkeypatch):
    # both common-noise branches of the tree sweep read the mean child value,
    # which drops the covariance of the value with the increment; it is
    # nonzero only where the coefficients depend on the common noise
    cfg = with_overrides(load_config(NODE_DEPENDENT_CONFIG), mode="compare", out=str(tmp_path))
    gated = ("stationarity_residual", "picard_control_gap", "oracle_cost_gap_rel",
             "oracle_control_gap")
    result = run(cfg)
    assert result.status == 0
    step = riccati._tree_step

    def mean_child(grid, plus, minus, hat, G, coefficients):
        return step(grid, hat, hat, hat, G, coefficients)

    monkeypatch.setattr(riccati, "_tree_step", mean_child)
    result = run(cfg)
    rows = {r.metric: r for r in result.rows}
    assert [m for m in gated if rows[m].passed] == []
    assert result.status == 1
