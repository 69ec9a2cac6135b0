"""Conditional McKean-Vlasov linear-quadratic control.

Solves the linear-quadratic optimal control problem whose state dynamics
and cost involve the conditional expectation of the state given a common
noise, by decomposing it into two classical LQ problems: one for the
conditional mean (driven by the common noise) and one for the centered
remainder (driven by the idiosyncratic noise).  Both are handled either
exactly on an enumerated joint path tree or through backward Riccati ODE
integration, and every answer can be cross-checked against a brute-force
quadratic-programming oracle on the same discretization.

Importing the package, before NumPy is first imported, caps BLAS at one
thread unless a BLAS or OpenMP thread variable is set: the products here
are small or memory-bound, and a threaded long dot product sums in an
order that depends on the thread count, so reports would differ by host.
"""

import os as _os

if not any(_os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    _os.environ.update(OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

from .coeffs import (
    Coefficient,
    CoefficientSet,
    ValidationReport,
    bar_transform,
    homogeneous,
    make_coefficients,
    validate_coefficients,
)
from .config import (
    RunConfig,
    build_coefficients,
    initial_condition,
    load_config,
    parse_config,
    serialize_config,
)
from .decomposition import (
    check_decomposition,
    eval_cost_bar,
    eval_cost_breve,
    eval_cost_mft,
    lemma_identities,
    simulate_bar,
    simulate_breve,
    simulate_mft,
    split_pair,
)
from .errors import (
    AdaptednessError,
    CapacityError,
    CmvlqError,
    ConfigError,
    ConstraintViolationError,
    ConvergenceError,
    DimensionError,
    NotDeterministicError,
    SingularSystemError,
)
from .fbsde import (
    MftSolution,
    OdePolicy,
    assemble_optimal_control,
    build_ode_policy,
    solve_bar_fbsde,
    solve_breve_fbsde,
    solve_coupled_mv_fbsde,
    verify_stationarity,
)
from .instances import Instance, random_control, random_instance
from .lattice import (
    F0_ADAPTED,
    F_ADAPTED,
    JointTree,
    TimeGrid,
    TreeProcess,
    build_joint_tree,
    conditional_expectation_f0,
    inner_product,
    project_breve,
)
from .oracle import (
    ComparisonReport,
    QpSolution,
    compare_solutions,
    cost_gradient,
    solve_qp_bar,
    solve_qp_breve,
    solve_qp_exact,
)
from .riccati import convexity_margins, solve_l, solve_pi
from .sim import (
    CheckReport,
    DominanceReport,
    PathEnsemble,
    ValueEstimate,
    check_bellman,
    check_policy_dominance,
    check_value_function,
    estimate_cost,
    simulate_forward,
    weak_order_check,
)

__all__ = [
    "AdaptednessError",
    "CapacityError",
    "CheckReport",
    "CmvlqError",
    "Coefficient",
    "CoefficientSet",
    "ComparisonReport",
    "ConfigError",
    "ConstraintViolationError",
    "ConvergenceError",
    "DimensionError",
    "DominanceReport",
    "F0_ADAPTED",
    "F_ADAPTED",
    "Instance",
    "JointTree",
    "MftSolution",
    "NotDeterministicError",
    "OdePolicy",
    "PathEnsemble",
    "QpSolution",
    "RunConfig",
    "SingularSystemError",
    "TimeGrid",
    "TreeProcess",
    "ValidationReport",
    "ValueEstimate",
    "assemble_optimal_control",
    "bar_transform",
    "build_coefficients",
    "build_joint_tree",
    "build_ode_policy",
    "check_bellman",
    "check_decomposition",
    "check_policy_dominance",
    "check_value_function",
    "compare_solutions",
    "conditional_expectation_f0",
    "convexity_margins",
    "cost_gradient",
    "estimate_cost",
    "eval_cost_bar",
    "eval_cost_breve",
    "eval_cost_mft",
    "homogeneous",
    "initial_condition",
    "inner_product",
    "lemma_identities",
    "load_config",
    "make_coefficients",
    "parse_config",
    "project_breve",
    "random_control",
    "random_instance",
    "serialize_config",
    "simulate_bar",
    "simulate_breve",
    "simulate_forward",
    "simulate_mft",
    "solve_bar_fbsde",
    "solve_breve_fbsde",
    "solve_coupled_mv_fbsde",
    "solve_l",
    "solve_pi",
    "solve_qp_bar",
    "solve_qp_breve",
    "solve_qp_exact",
    "split_pair",
    "validate_coefficients",
    "verify_stationarity",
    "weak_order_check",
]

__version__ = "0.1.0"
