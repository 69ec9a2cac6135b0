"""Solve a small mean-field instance two ways and print the agreement.

The decomposition route solves two classical LQ problems (conditional
mean and centered remainder) and assembles their feedbacks; the oracle
route minimizes the same discrete cost as one large quadratic program
over every tree node.  They agree to solver precision.
"""

import numpy as np

from cmvlq import (
    assemble_optimal_control,
    build_joint_tree,
    compare_solutions,
    make_coefficients,
    solve_qp_exact,
    verify_stationarity,
)

c = make_coefficients(
    2,
    1,
    0.75,
    3,
    A=np.array([[-0.4, 0.2], [0.1, -0.6]]),
    F=np.array([[0.15, 0.0], [0.05, 0.1]]),
    B=np.array([[1.0], [0.5]]),
    H=np.array([[0.4, 0.1], [0.0, 0.3]]),
    Q=np.array([[1.2, 0.1], [0.1, 0.9]]),
    R=np.array([[0.8]]),
    QT=np.array([[1.0, 0.0], [0.0, 1.4]]),
    S=np.array([[0.05], [0.02]]),
    b=np.array([0.1, -0.05]),
    D=np.array([0.3, 0.2]),
    D0=np.array([0.25, 0.1]),
)
grid = c.grid()

# two-point initial distribution, independent of both noises
xi = np.array([[0.9, -0.4], [0.2, 0.6]])
probs = np.array([0.35, 0.65])
tree = build_joint_tree(grid, probs)

sol = assemble_optimal_control(c, tree, xi)
qp = solve_qp_exact(c, tree, grid, xi)
rep = compare_solutions(c, tree, grid, qp.control, sol.control, xi)
stat = verify_stationarity(sol)

print(f"decomposition cost      {sol.cost:.12f}")
print(f"  mean part             {sol.bar.cost:.12f}")
print(f"  centered part         {sol.breve.cost:.12f}")
print(f"  split residual        {sol.split_residual:.3e}")
print(f"oracle cost             {qp.cost:.12f}  ({qp.dim} variables)")
print(f"cost gap (relative)     {rep.cost_rel_diff:.3e}")
print(f"control gap (sup)       {rep.control_sup_diff:.3e}")
print(f"stationarity residual   {stat.max_residual:.3e}")
