"""Exception types, the readers of raw arguments, the record base and the
constants the CLI reads.

Raw values (numbers, sequences of them, the CLI's strings and JSON) are read
once where they enter a public function, by _integral, _real or _sequence
(matrices by halfspace._square_rows); a malformed one raises InvalidInputError
(CLI exit 2), and a bool reads as 0 or 1.  Library objects are checked by
their constructors; result records check nothing.  Anything else is a
programming error, and a TypeError or AttributeError may escape.  The
tolerances and the least tube parameter live here so that the CLI and the
bound cases read them without loading numpy or halfspace.  _Record is the
base of the package's nine immutable records.
"""

import math
import numbers

#: Default absolute tolerance for a single theta constant.
DEFAULT_TOL = 1e-10

#: Default component-wise tolerance after fourth powers.
DEFAULT_TOL_FOURTH = 1e-8

#: The least positive float: _real(x, _TINY, high, what) reads x in (0, high).
_TINY = math.ulp(0.0)

#: Tube parameters below sqrt(3)/2 do not describe a neighborhood of the cusps.
MIN_TUBE_PARAMETER = math.sqrt(3.0) / 2.0

_TUBE = f"tube parameter must be >= sqrt(3)/2 ~ {MIN_TUBE_PARAMETER:.6f}"


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


def _integral(x, least=None, what="expected an integer") -> int:
    """x as an int, at least ``least`` if given.  InvalidInputError, with ``what`` as
    the message, unless x is a finite integral real number: 3.9 is not truncated to 3."""
    try:
        ok = type(x) is int or (type(x) is float or isinstance(x, numbers.Real)) and int(x) == x
    except (ValueError, OverflowError):  # NaN and the infinities
        ok = False
    if ok and (least is None or x >= least):
        return int(x)
    raise InvalidInputError(f"{what}, got {x!r}")


def _real(x, low: float, high: float, what: str) -> float:
    """x as a float in [low, high).  InvalidInputError, with ``what`` as the message, unless x is a
    real number whose float lies there (an int past the float range is inf): NaN, "1.0" and 1j are not."""
    try:
        y = x if type(x) is float else float(x) if type(x) is int or isinstance(x, numbers.Real) else math.nan
    except OverflowError:
        y = math.inf
    if low <= y < high:
        return y
    raise InvalidInputError(f"{what}, got {x!r}")


def _sequence(x, entry, what: str) -> list:
    """The items of x as a list, each through entry unless it is None; InvalidInputError, with
    ``what`` and the cause as the message, for a TypeError, ValueError or OverflowError in reading."""
    try:
        return list(x) if entry is None else [entry(v) for v in x]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what}: {exc}") from exc


class _Record:
    """Base of the package's immutable records, each a class with __slots__
    and an __init__ that sets its fields by object.__setattr__.

    A record compares equal to one of its own class with equal fields (as a
    tuple, so an identical value counts as equal), hashes as the tuple of
    its fields, prints as Name(field=value, ...), pickles and copies by
    calling its constructor on its fields, and refuses any assignment or
    deletion with AttributeError.  The fields are the slots, unless a class
    names fewer in ``_fields``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
