"""Exception types shared across the package, and the one integrality check."""

import math
import numbers


class SiegelRungeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SiegelRungeError, ValueError):
    """An argument violates a documented precondition."""


class ConditioningError(SiegelRungeError, ArithmeticError):
    """A linear system is too ill-conditioned to solve reliably."""


class NonConvergenceError(SiegelRungeError, RuntimeError):
    """An iteration hit its cap."""


class ResourceLimitError(SiegelRungeError, RuntimeError):
    """A request would need more work or a wider integer range than allowed."""


class InconsistencyError(SiegelRungeError, RuntimeError):
    """An internal sanity check failed; indicates a bug, not bad input."""


def _integral(x) -> int:
    """x as an int.  Raises InvalidInputError unless x is a finite integral
    number, so that 3.9 is refused rather than truncated to 3."""
    if type(x) is not int:
        if not (isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x):
            raise InvalidInputError(f"expected an integer, got {x!r}")
        x = int(x)
    return x
