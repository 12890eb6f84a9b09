"""Exception and warning types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data, incompatible dimensions, or an out-of-range parameter."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target.  ``estimate``
    is the last value reached, and ``node`` the first node of the matrix
    block that failed, where the routine names one."""

    def __init__(self, message, estimate=None, node=None):
        super().__init__(message)
        self.estimate = estimate
        self.node = node


class ExplosionGuardError(ValidationError):
    """Brute-force enumeration would exceed the walk-count budget."""


class ConvergenceWarning(UserWarning):
    """A computation proceeded without a certified convergence radius."""
