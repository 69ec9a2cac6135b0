"""Exception types shared across the package."""


class CmvlqError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CmvlqError):
    """A coefficient, state, or control has an inconsistent shape.

    Carries the offending field name and, when meaningful, the grid step.
    """

    def __init__(self, field, message, step=None):
        self.field = field
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"{field}{where}: {message}")


class AdaptednessError(CmvlqError):
    """A tree process has the wrong adaptedness tag, or violates it numerically."""


class CapacityError(CmvlqError):
    """The requested joint path tree is too large to enumerate."""


class SingularSystemError(CmvlqError):
    """A linear system that should be positive definite is numerically singular."""


class FiniteEscapeError(CmvlqError):
    """A backward Riccati solution left the finite numbers (blew up)."""


class NotDeterministicError(CmvlqError):
    """An operation restricted to deterministic coefficients was given random ones."""


class ConstraintViolationError(CmvlqError):
    """An input violates a problem constraint (e.g. conditional centering)."""

    def __init__(self, constraint, magnitude, tolerance):
        self.constraint = constraint
        self.magnitude = magnitude
        self.tolerance = tolerance
        super().__init__(
            f"constraint {constraint} violated: deviation {magnitude:.3e} "
            f"exceeds tolerance {tolerance:.1e}"
        )


class ConvergenceError(CmvlqError):
    """An iterative solver failed to reach its tolerance.

    The per-iteration residual history is attached for diagnosis.
    """

    def __init__(self, message, residual_history):
        self.residual_history = list(residual_history)
        super().__init__(message)


class ConfigError(CmvlqError):
    """Configuration text failed to parse or validate.

    ``errors`` holds every problem found (not just the first), each as a
    human-readable string prefixed with a line number where applicable.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(self.errors))
