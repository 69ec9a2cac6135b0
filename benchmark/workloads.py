"""Workload inputs: the configuration texts the program reads.

Every workload is fixed apart from the seed, which only moves random
draws: Monte Carlo streams, the convexity-margin directions and the
directions of the benchmark's own optimality check.  The coefficient
numbers live here once; the configuration text handed to the program
and the benchmark's independent reference computations are both made
from them.
"""

from __future__ import annotations

# The demos/mean_field.cfg coefficients: two states, one control, both
# noises active, affine terms present, two initial atoms.
DEMO = {
    "n": "2",
    "d": "1",
    "A": "-0.4 0.2 ; 0.1 -0.6",
    "F": "0.15 0.0 ; 0.05 0.1",
    "B": "1.0 ; 0.5",
    "H": "0.4 0.1 ; 0.0 0.3",
    "Q": "1.2 0.1 ; 0.1 0.9",
    "R": "0.8",
    "QT": "1.0 0.0 ; 0.0 1.4",
    "S": "0.05 ; 0.02",
    "b": "0.1 -0.05",
    "D": "0.3 0.2",
    "D0": "0.25 0.1",
    "zeta": "0.02 0.01",
    "varpi": "0.03",
    "xi_atoms": "0.9 -0.4 ; 0.2 0.6",
    "xi_probs": "0.35 0.65",
}
DEMO_T = "0.75"

TREE_SOLVE_N = 8
ORACLE_DEPTHS = (5, 6)
MC_PATHS = 40_000
MC_COMMON = 16
MC_DT = "0.002"


def config_text(mode: str, n_steps: int, horizon: str, coeffs: dict, *,
                backend: str = "tree", n_paths: int = 1000,
                n_common: int = 16, dt_target: str = "1e-3") -> str:
    lines = [
        "[run]", f"mode = {mode}", "out = out", "",
        "[grid]", f"N = {n_steps}", f"T = {horizon}", f"backend = {backend}", "",
        "[coefficients]",
    ]
    lines += [f"{key} = {value}" for key, value in coeffs.items()]
    lines += [
        "", "[simulation]", f"n_paths = {n_paths}", "seed = 0",
        f"n_common_noise = {n_common}", f"dt_target = {dt_target}",
    ]
    return "\n".join(lines) + "\n"


def configs(workload: str) -> dict:
    """File name -> configuration text for one workload."""
    if workload == "tree_solve":
        return {"tree_n8.cfg": config_text("solve", TREE_SOLVE_N, DEMO_T, DEMO, dt_target=MC_DT)}
    if workload == "oracle_compare":
        return {
            f"compare_n{n}.cfg": config_text("compare", n, DEMO_T, DEMO, dt_target=MC_DT)
            for n in ORACLE_DEPTHS
        }
    if workload == "mc_simulate":
        return {"simulate.cfg": config_text(
            "simulate", 3, DEMO_T, DEMO, n_paths=MC_PATHS, n_common=MC_COMMON,
            dt_target=MC_DT)}
    raise ValueError(f"unknown workload {workload!r}")


def cli_calls(workload: str, cfg_dir: str, out_dir: str, seed: int) -> list:
    """argv lists for cmvlq.cli.main, in order."""
    if workload == "tree_solve":
        return [["solve", "--config", f"{cfg_dir}/tree_n8.cfg", "--seed", str(seed),
                 "--out", f"{out_dir}/n8"]]
    if workload == "oracle_compare":
        return [["compare", "--config", f"{cfg_dir}/compare_n{n}.cfg", "--seed", str(seed),
                 "--out", f"{out_dir}/n{n}"] for n in ORACLE_DEPTHS]
    if workload == "mc_simulate":
        return [["simulate", "--config", f"{cfg_dir}/simulate.cfg", "--seed", str(seed),
                 "--out", f"{out_dir}/mc"]]
    return []


def parse_matrix(text: str):
    """The configuration's matrix notation: rows split by ';'."""
    import numpy as np

    rows = [[float(tok) for tok in row.split()] for row in text.split(";")]
    return np.array(rows, dtype=float)
