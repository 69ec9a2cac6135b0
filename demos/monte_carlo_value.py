"""Check the continuous-time value prediction by forward simulation.

Builds the closed-loop feedback from the backward Riccati ODEs, runs a
particle ensemble that shares common-noise paths in groups, and compares
the average realized cost against the quadratic value formula evaluated
at the initial distribution.
"""

import numpy as np

from cmvlq import build_ode_policy, estimate_cost, make_coefficients, simulate_forward
from cmvlq.cli import predicted_closed_loop_value

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
    D=np.array([0.3, 0.2]),
    D0=np.array([0.25, 0.1]),
)
grid = c.grid()
xi = np.array([[0.9, -0.4], [0.2, 0.6]])
probs = np.array([0.35, 0.65])

policy = build_ode_policy(c, dt_target=2e-3)
ensemble = simulate_forward(
    policy, c, grid, 20_000, seed=11, xi=xi, atom_probs=probs,
    n_common=16, dt_target=2e-3,
)
estimate = estimate_cost(ensemble)
predicted = predicted_closed_loop_value(policy, xi, probs)
z = abs(estimate.mean - predicted) / estimate.std_error

print(f"paths                  {ensemble.n_paths}")
print(f"realized mean cost     {estimate.mean:.6f} +/- {estimate.std_error:.6f}")
print(f"predicted value        {predicted:.6f}")
print(f"gap in standard errors {z:.2f}")
