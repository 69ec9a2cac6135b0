"""Random instances with W0 slopes that ``random_instance`` never draws.

``random_instance`` never sets ``R_slope`` or ``S_slope``, so through it a
per-prefix R or S reaches no solver; and it sets ``zeta_slope`` and
``varpi_slope`` together or not at all, so a W0-dependent varpi always
meets a W0-dependent zeta.  ``with_control_slopes`` and
``with_varpi_slope`` add such slopes to an instance by
``dataclasses.replace``, drawn from a stream of their own so the
instance's stream is untouched, and check that the result still passes
validation.
"""

from dataclasses import replace

import numpy as np

from cmvlq.coeffs import Coefficient, validate_coefficients
from cmvlq.instances import random_instance

# the pytest parameter values that ask for W0-dependent R and S, or for a
# W0-dependent varpi beside a deterministic zeta
CONTROL_SLOPES = "R_S_slopes"
VARPI_SLOPE = "varpi_slope"


def _validated(inst, c):
    report = validate_coefficients(c, c.grid())
    assert report.passed, report.messages
    return replace(inst, coeffs=c)


def with_control_slopes(inst, scale=0.05):
    """inst with symmetric R slopes and S slopes of entries up to scale added."""
    c = inst.coeffs
    rng = np.random.default_rng([inst.seed, 33])
    r = rng.uniform(-scale, scale, (c.n_steps, c.d, c.d))
    return _validated(inst, replace(
        c, R=Coefficient(c.R.base, 0.5 * (r + np.swapaxes(r, 1, 2))),
        S=Coefficient(c.S.base, rng.uniform(-scale, scale, c.S.base.shape))))


def with_varpi_slope(inst, scale=0.5):
    """inst with varpi slopes of entries up to scale added; zeta is left as it is,
    so on an instance drawn without node dependence it stays deterministic.
    """
    c = inst.coeffs
    rng = np.random.default_rng([inst.seed, 34])
    return _validated(inst, replace(
        c, varpi=Coefficient(c.varpi.base, rng.uniform(-scale, scale, c.varpi.base.shape))))


def sloped_instance(seed, kind, max_steps):
    """random_instance(seed), node-dependent if kind is True, with the slopes a tag asks for."""
    if kind == CONTROL_SLOPES:
        return with_control_slopes(random_instance(seed, max_steps=max_steps))
    if kind == VARPI_SLOPE:
        return with_varpi_slope(random_instance(seed, node_dependent=False, max_steps=max_steps))
    return random_instance(seed, node_dependent=kind, max_steps=max_steps)
