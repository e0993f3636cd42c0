"""Exception types shared across the package."""


class SiegelRungeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SiegelRungeError, ValueError):
    """An argument violates a documented precondition."""


class ConditioningError(SiegelRungeError, ArithmeticError):
    """A linear system is too ill-conditioned to solve reliably."""


class NonConvergenceError(SiegelRungeError, RuntimeError):
    """An iteration hit its cap.  Carries the best iterate seen so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ResourceLimitError(SiegelRungeError, RuntimeError):
    """A request would need more work or a wider integer range than allowed."""


class InconsistencyError(SiegelRungeError, RuntimeError):
    """An internal sanity check failed; indicates a bug, not bad input."""
