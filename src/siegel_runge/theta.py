"""Theta constants with half-integral characteristics on H2.

A characteristic is m = (a, b) with a, b in {0, 1/2}^2.  The series computed
here is

    Theta_m(tau) = sum over n in Z^2 of exp(i pi (n+a)^t tau (n+a)) * (-1)^(2 n.b),

i.e. the quadratic exponent carries a factor pi and the phase sits on n
rather than n + a.  The phase convention only rescales each constant by a
fixed unimodular number and drops out entirely from fourth powers, which is
all the projective embedding consumes.  With the factor pi the fourth powers
are weight-2 modular forms for the level-2 congruence subgroup, so the
embedding is well defined on the level-2 quotient; a factor 2 pi instead
would evaluate the series at 2 tau and transform under a conjugated group.

Two exact identities worth knowing (both tested):

* Theta_m vanishes identically iff m is odd (terms cancel in pairs
  n <-> -n - 2a).
* Theta_m(tau + 2B) picks up the unimodular factor i^(4 a^t B a) for
  symmetric integer B, so the fourth powers have exact period 2 entrywise
  in Re(tau) while the constants themselves may rotate by a fourth root of
  unity.

Truncation is rigorous: the returned error bound dominates the absolute
value of the discarded tail via a comparison with a geometric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .halfspace import SiegelPoint

__all__ = [
    "Characteristic",
    "ThetaValue",
    "parity",
    "all_characteristics",
    "even_characteristics",
    "odd_characteristics",
    "tail_bound",
    "truncation_radius",
    "theta_constant",
    "theta_fourth_vector",
]

#: Default absolute tolerance for a single theta constant.
DEFAULT_TOL = 1e-10

#: Default component-wise tolerance after fourth powers.
DEFAULT_TOL_FOURTH = 1e-8

_MAX_RADIUS = 10_000

#: Most terms per shift evaluated at once; larger boxes go in slabs of rows.
_SLAB_TERMS = 1 << 16


@dataclass(frozen=True, order=True)
class Characteristic:
    """Half-integral characteristic, stored as numerator bits of (a, b).

    ``bits = (a1, a2, b1, b2)`` with each entry 0 or 1 standing for the
    exact dyadic value 0 or 1/2.
    """

    bits: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.bits) != 4 or any(x not in (0, 1) for x in self.bits):
            raise InvalidInputError("characteristic bits must be four values in {0, 1}")
        object.__setattr__(self, "bits", tuple(int(x) for x in self.bits))

    @classmethod
    def from_halves(cls, a, b) -> "Characteristic":
        """Build from the actual values, each component 0 or 1/2."""
        vals = (*a, *b)
        if any(v not in (0, 0.5) for v in vals):
            raise InvalidInputError("characteristic components must be 0 or 1/2")
        return cls(tuple(int(2 * v) for v in vals))

    @property
    def a(self) -> tuple[float, float]:
        return (self.bits[0] / 2.0, self.bits[1] / 2.0)

    @property
    def b(self) -> tuple[float, float]:
        return (self.bits[2] / 2.0, self.bits[3] / 2.0)

    @property
    def is_even(self) -> bool:
        a1, a2, b1, b2 = self.bits
        return (a1 * b1 + a2 * b2) % 2 == 0

    def __str__(self):
        return "".join(str(x) for x in self.bits)


def parity(m: Characteristic) -> str:
    """'even' iff 4 a.b is an even integer."""
    return "even" if m.is_even else "odd"


@lru_cache(maxsize=1)
def all_characteristics() -> tuple[Characteristic, ...]:
    """All 16 characteristics in lexicographic bit order."""
    return tuple(
        Characteristic((a1, a2, b1, b2))
        for a1 in (0, 1) for a2 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
    )


@lru_cache(maxsize=1)
def even_characteristics() -> tuple[Characteristic, ...]:
    """The 10 even characteristics, lexicographic on (a1, a2, b1, b2)."""
    return tuple(m for m in all_characteristics() if m.is_even)


@lru_cache(maxsize=1)
def odd_characteristics() -> tuple[Characteristic, ...]:
    return tuple(m for m in all_characteristics() if not m.is_even)


@dataclass(frozen=True)
class ThetaValue:
    """A computed theta constant with a rigorous absolute error bound."""

    value: complex
    error_bound: float


# Every term satisfies |term| <= exp(-pi y_min |n+a|^2) and |n+a| >= k - c
# with k = max(|n1|, |n2|) and c = |a| <= sqrt(2)/2; a max-norm ring holds 8k
# points.  For k > R, (k-c)^2 >= (R+1-c)^2 + 2(R+1-c)(k-R-1) turns the tail
# into a dominated arithmetico-geometric series.
_A_NORM = math.sqrt(2.0) / 2.0


def tail_bound(radius: int, y_min: float) -> float:
    """Upper bound for the absolute tail beyond the box max|n_i| <= radius."""
    if radius < 0:
        raise InvalidInputError("radius must be nonnegative")
    if y_min <= 0.0:
        raise InvalidInputError("y_min must be positive")
    s = radius + 1 - _A_NORM
    e = math.exp(-math.pi * y_min * s * s)
    x = 2.0 * math.pi * y_min * s
    rho = math.exp(-x)
    # 1 - rho without cancellation: it stays positive when rho rounds to 1.
    q = -math.expm1(-x)
    return 8.0 * e * ((radius + 1) / q + rho / q / q)


def truncation_radius(y_min: float, tol: float) -> int:
    """Smallest box radius whose tail bound is at most tol.

    ``y_min`` is the least eigenvalue of Im(tau).  Raises ResourceLimitError
    if more than 10^4 would be needed.
    """
    if y_min <= 0.0:
        raise InvalidInputError("y_min must be positive")
    if not 0.0 < tol < 1.0:
        raise InvalidInputError("tol must lie in (0, 1)")
    for r in range(1, _MAX_RADIUS + 1):
        if tail_bound(r, y_min) <= tol:
            return r
    raise ResourceLimitError(
        f"tolerance {tol:.1e} at y_min {y_min:.3e} needs a box radius beyond {_MAX_RADIUS}"
    )


def _theta_table(tau: SiegelPoint, r: int) -> np.ndarray:
    """All 16 sums over the box max(|n1|, |n2|) <= r, indexed by bits.

    ``table[a1, a2, b1, b2]`` is the truncated Theta_m for m with those
    bits.  Only the shift a enters the exponent, so each of the four shifts
    gets one array E_a(n) = exp(i pi (n+a)^t tau (n+a)).  The phase
    exp(2 i pi n.b) = (-1)^(n1 b1 + n2 b2), with b the numerator bits,
    factors over the two axes: the four b come out of one s @ E_a @ s^t
    whose sign rows s are exactly +-1.  The n1 rows go in slabs of at most
    _SLAB_TERMS terms, so memory stays linear in r.
    """
    n = np.arange(-r, r + 1)
    signs = np.stack([np.ones(n.size), 1.0 - 2.0 * (n & 1)])
    v = n + np.array([[0.0], [0.5]])
    v2 = v[None, :, None, :]
    rows = max(1, _SLAB_TERMS // n.size)
    table = np.zeros((2, 2, 2, 2), dtype=complex)
    for lo in range(0, n.size, rows):
        v1 = v[:, None, lo : lo + rows, None]
        quad = v1 * v1 * tau.tau1 + 2.0 * v1 * v2 * tau.tau2 + v2 * v2 * tau.tau4
        table += signs[:, lo : lo + rows] @ np.exp(1j * math.pi * quad) @ signs.T
    return table


def theta_constant(m: Characteristic, tau, tol: float = DEFAULT_TOL) -> ThetaValue:
    """Evaluate Theta_m(tau) with absolute error at most tol.

    Parameters
    ----------
    m : Characteristic
    tau : SiegelPoint or 2x2 complex symmetric array in H2
    tol : requested absolute tolerance, in (0, 1)

    Returns
    -------
    ThetaValue with ``error_bound <= tol``.  The sum runs over the box
    max(|n1|, |n2|) <= R with R from :func:`truncation_radius`.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    y_min = tau.min_imag_eigenvalue()
    r = truncation_radius(y_min, tol)
    return ThetaValue(complex(_theta_table(tau, r)[m.bits]), tail_bound(r, y_min))


def theta_fourth_vector(tau, tol: float = DEFAULT_TOL_FOURTH) -> np.ndarray:
    """The 10 values Theta_m(tau)^4, ordered by :func:`even_characteristics`.

    Each component carries an absolute error at most tol.  All ten come
    from one box whose radius meets the inner tolerance tol / (4 U^3) with
    U = (1 + y_min^(-1/2))^2.  Every term is at most exp(-pi y_min |n+a|^2),
    which factors over the axes, and each 1-D sum of exp(-pi y (n+a)^2)
    over n is at most its peak 1 plus the integral y^(-1/2).  So U bounds
    the absolute series, hence both the constant z and any partial sum w,
    and |z^4 - w^4| = |z - w| |z^3 + z^2 w + z w^2 + w^3| <= 4 U^3 |z - w|.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    y_min = tau.min_imag_eigenvalue()
    with np.errstate(over="ignore"):
        # numpy powers overflow to inf, where float powers would raise
        u = (1.0 + np.float64(y_min) ** -0.5) ** 2
        inner = tol / (4.0 * u**3)
    if inner == 0.0:
        raise ResourceLimitError(f"the inner tolerance underflows at y_min {y_min:.3e}")
    table = _theta_table(tau, truncation_radius(y_min, inner))
    return np.array([table[m.bits] for m in even_characteristics()]) ** 4
