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
  n <-> -n - 2a, that is n + a <-> -(n + a)).
* Theta_m(tau + 2B) picks up the unimodular factor i^(4 a^t B a) for
  symmetric integer B, so the fourth powers have exact period 2 entrywise
  in Re(tau) while the constants themselves may rotate by a fourth root of
  unity.

Truncation is rigorous.  The box of radius R is |n_i + a_i| <= R + 1/2,
which is symmetric under n + a -> -(n + a) and contains max|n_i| <= R, so
the bound on the absolute tail beyond the latter (a comparison with a
geometric series) dominates what the box leaves out.  On the symmetric box
the terms of an odd m cancel in pairs, so odd constants are exactly 0, and
the kernel exponentiates only the half n1 + a1 >= 0.  Up to radius 16,
flattened, that half gives the ten even sums as K @ exp(c @ Q) with
c = (tau1, tau2, tau4), Q the exponents and K the signs, cached with the
columns v = n + a sorted by |v|^2.  R takes the tail alone to below the
tolerance; the rest of the tolerance is a budget for the terms inside the
box too small to matter.  Every term is at most exp(-pi y_min |v|^2), so on
a cached radius the kernel sums only the prefix of columns with
|v|^2 <= S = log(2N / budget) / (pi y_min), N the number of columns, which
moves each sum by less than the budget (proof at :func:`_even_sums`).
(Q, K) are O(r^2), so past radius 16 the kernel sums the whole half box in
its separable form, sign rows @ exp(exponents) @ sign rows, slab by slab.

The fourth powers are weight-2 forms for the level-2 group, so for M =
[[A, B], [C, D]] in Sp4(Z)

    theta^4(M tau) = det(C tau + D)^2 rho(M mod 2) theta^4(tau),

with rho a signed 10x10 permutation that depends on M mod 2 only (Igusa,
Theta Functions, 1972, ch. II.5 and ch. V; Mumford, Tata Lectures on Theta
I, II.5).  Igusa's transformation formula gives it in closed form: rho
sends m to M.m with the sign (-1)^(tr(B^t C) + x.diag(B^t D) + y.diag(A^t C))
at 2m = (x, y), the fourth power of kappa(M) e(phi_m(M)); the other terms
of phi_m are integers and drop out of the fourth power.
:func:`theta_fourth_vector` uses it for points whose box at tau would be
large: it sums the box at res.reduced instead, with res the result of
:func:`~siegel_runge.halfspace.reduce_to_fundamental_domain`, at the
tolerance scaled by |det(C tau + D)|^2 = |res.cocycle|^2, and maps the
values back through rho.  Theta constants themselves pick up eighth roots
of unity under Sp4(Z), so :func:`theta_constant` always sums at tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (_TINY, DEFAULT_TOL, DEFAULT_TOL_FOURTH, InvalidInputError, ResourceLimitError, _integral,
                     _real, _sequence)
from .halfspace import SiegelPoint, reduce_to_fundamental_domain

__all__ = [
    "Characteristic",
    "ThetaValue",
    "all_characteristics",
    "even_characteristics",
    "odd_characteristics",
    "tail_bound",
    "truncation_radius",
    "theta_constant",
    "theta_fourth_vector",
]

_MAX_RADIUS = 10_000

#: theta_fourth_vector sums boxes up to this radius directly and evaluates
#: points that need more through the fundamental domain; near this radius
#: the two routes cost the same.
_ROUTE_RADIUS = 16

#: Radii whose (Q, K) stay cached, 2.9 MB for all 16; fixed, not _ROUTE_RADIUS.
_FUSED_RADIUS = 16

#: Most exponentials per slab of rows of the half box past _FUSED_RADIUS.
_SLAB_TERMS = 1 << 12


@dataclass(frozen=True, order=True)
class Characteristic:
    """Half-integral characteristic, stored as numerator bits of (a, b).

    ``bits = (a1, a2, b1, b2)`` with each entry 0 or 1 standing for the
    exact dyadic value 0 or 1/2.
    """

    bits: tuple[int, int, int, int]

    def __post_init__(self):
        what = "characteristic bits must be four values in {0, 1}"
        bits = tuple(_sequence(self.bits, _integral, what))
        if len(bits) != 4 or not {0, 1}.issuperset(bits):
            raise InvalidInputError(f"{what}, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @property
    def is_even(self) -> bool:
        """True iff 4 a.b is an even integer."""
        a1, a2, b1, b2 = self.bits
        return (a1 * b1 + a2 * b2) % 2 == 0

    def __str__(self):
        return "".join(str(x) for x in self.bits)


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
    """A computed theta constant with a rigorous bound on truncation and cut.

    ``radius`` is the box radius R, ``terms`` the number of half-box
    columns exponentiated (0 for an odd constant, which is exactly 0), and
    ``error_bound`` the tail beyond the box plus the bound on the columns
    the kernel dropped inside it, without the floating-point rounding, which
    exceeded it at tol 1e-14 past the cache (ROADMAP item 2).
    """

    value: complex
    error_bound: float
    radius: int
    terms: int


# Every term satisfies |term| <= exp(-pi y_min |n+a|^2) and |n+a| >= k - c
# with k = max(|n1|, |n2|) and c = |a| <= sqrt(2)/2; a max-norm ring holds 8k
# points.  For k > R, (k-c)^2 >= (R+1-c)^2 + 2(R+1-c)(k-R-1) turns the tail
# into a dominated arithmetico-geometric series.
_A_NORM = math.sqrt(2.0) / 2.0


def tail_bound(radius: int, y_min: float) -> float:
    """Upper bound for the absolute tail beyond the box max|n_i| <= radius,
    hence beyond the larger box |n_i + a_i| <= radius + 1/2 that is summed."""
    radius = _integral(radius, 0, "radius must be an integer >= 0")
    return _tail(radius, _real(y_min, _TINY, math.inf, "y_min must be finite and positive"))


def _tail(radius: int, y_min: float) -> float:
    """:func:`tail_bound` of arguments already read."""
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
    if more than 10^4 would be needed.  The search starts where
    8 exp(-pi y_min s^2) max(1, 1 / (4 pi y_min)) reaches tol.  The bound is
    at least 8 exp(-pi y_min s^2) (r + 1) / q, and q <= 2 pi y_min s with
    s < r + 1 gives (r + 1) / q >= max(2, 1 / (2 pi y_min)); so below that
    radius the bound exceeds tol by a factor 2 or more, and no smaller
    radius can pass, rounding included.
    """
    y_min = _real(y_min, _TINY, math.inf, "y_min must be finite and positive")
    return _truncation(y_min, _real(tol, _TINY, 1.0, "tol must lie in (0, 1)"))[0]


def _truncation(y_min: float, tol: float) -> tuple[int, float]:
    """The radius of :func:`truncation_radius` and its tail bound."""
    found = _radius_up_to(y_min, tol, _MAX_RADIUS)
    if found is None:
        raise ResourceLimitError(
            f"tolerance {tol:.1e} at y_min {y_min:.3e} needs a box radius beyond {_MAX_RADIUS}"
        )
    return found


def _radius_up_to(y_min: float, tol: float, cap: int) -> tuple[int, float] | None:
    """The radius of :func:`truncation_radius` and its tail bound, or None
    if the radius exceeds cap."""
    lead = 8.0 / tol * max(1.0, 1.0 / (4.0 * math.pi * y_min))
    start = math.sqrt(math.log(lead) / (math.pi * y_min)) + _A_NORM - 1.0
    if start <= cap:
        for r in range(max(1, math.ceil(start)), cap + 1):
            tail = _tail(r, y_min)
            if tail <= tol:
                return r, tail
    return None


@lru_cache(maxsize=64)
def _axis(r: int) -> tuple[np.ndarray, ...]:
    """The joint axis v = (n, n + 1/2) with |v| <= r + 1/2, that is n = -r..r
    for the integer half and n = -r-1..r for the half-integer half, its half
    v >= 0 for the rows, and the sign rows of both.

    Returns (v, v^2, signs, w, w^2, half_signs) with w = v[v >= 0].  Sign
    row 2a + b of ``signs`` is (-1)^(n b) on the half of v with shift a and 0
    on the other half; ``half_signs`` is its restriction to w, weighted 1 at
    w = 0 and 2 elsewhere, both complex like the exponentials.  These are
    O(r); the matrices of :func:`_fused` are O(r^2), cached only up to
    radius _FUSED_RADIUS.
    """
    n = np.arange(-r - 1, r + 1)
    v = np.concatenate([n[1:], n + 0.5])
    alt = 1.0 - 2.0 * (n & 1)
    signs = np.zeros((4, v.size), dtype=complex)
    signs[0, :n.size - 1], signs[1, :n.size - 1] = 1.0, alt[1:]
    signs[2, n.size - 1:], signs[3, n.size - 1:] = 1.0, alt
    half = v >= 0.0
    w = v[half]
    half_signs = signs[:, half] * np.where(w == 0.0, 1.0, 2.0)
    arrays = v, v * v, signs, w, w * w, half_signs
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: The sign rows 2 a1 + b1 and 2 a2 + b2 that the ten even characteristics
#: (a1, a2, b1, b2) pair, in their order: an index into the 4 x 4 table.
_EVEN_CELLS = tuple(np.array([(2 * a1 + b1, 2 * a2 + b2)
                              for a1, a2, b1, b2 in (m.bits for m in even_characteristics())]).T)


@lru_cache(maxsize=_FUSED_RADIUS)
def _fused(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (Q, K, count) on the half box w x v of :func:`_axis`, for
    r <= _FUSED_RADIUS only.  With Q (3 x N) = i pi (w^2, 2 w v, v^2), c @ Q is
    the exponent at (v1, v2) = (w, v); row j of K (10 x N) is
    half_signs[2 a1 + b1] (x) signs[2 a2 + b2] for the j-th even characteristic.
    The columns come sorted by the integer 4|v|^2, so that those with
    4|v|^2 <= j are a prefix of length count[j], j = 0 .. 2 (2r + 1)^2."""
    v, v2, signs, w, w2, half_signs = _axis(r)
    w, w2 = w[:, None], w2[:, None]
    q = 1j * math.pi * np.stack(np.broadcast_arrays(w2, 2.0 * w * v, v2)).reshape(3, -1)
    rows, cols = _EVEN_CELLS
    k = (half_signs[rows, :, None] * signs[cols, None, :]).reshape(10, -1)
    norm = (4.0 * (w2 + v2)).astype(np.intp).ravel()
    order = np.argsort(norm, kind="stable")
    q, k, count = q[:, order], k[:, order], np.cumsum(np.bincount(norm))
    q.flags.writeable = k.flags.writeable = count.flags.writeable = False
    return q, k, count


def _cut(r: int, y_min: float, budget: float) -> int:
    """The level j = floor(4 S) of the columns 4|v|^2 <= j that
    :func:`_even_sums` keeps within an error budget, with
    S = log(2N / budget) / (pi y_min) and N = (2r + 2)(4r + 3) the columns of
    the half box; the whole box, level 2 (2r + 1)^2, for a budget of 0 or an
    S past the box.  S carries a relative error of a few units in the last
    place; the factor 1 + 1e-12 covers it and can only keep more columns."""
    top = 2 * (2 * r + 1) ** 2
    if not budget > 0.0:
        return top
    s4 = 4.0 * (1.0 + 1e-12) * math.log(2.0 * (2 * r + 2) * (4 * r + 3) / budget) / (math.pi * y_min)
    return top if s4 >= top else math.floor(s4)


def _even_sums(tau: SiegelPoint, r: int, level: int | None = None) -> np.ndarray:
    """The ten even Theta_m over the box max(|n1 + a1|, |n2 + a2|) <= r + 1/2,
    ordered by :func:`even_characteristics`: up to radius _FUSED_RADIUS over
    the columns v = (v1, v2) with 4|v|^2 <= level, all of them if level is
    None; past it over the whole box, whatever the level.

    The exponentials E on the joint axis v x v hold all four shifts a as
    blocks and the phase (-1)^(n.b) factors over the axes.  The box is
    symmetric under v -> -v, which keeps E and flips the phase by
    (-1)^(4 a.b): odd terms cancel in pairs and an even sum is twice the rows
    v1 > 0 plus the row v1 = 0, weights that scale exactly.  Up to radius
    _FUSED_RADIUS the sums are K @ exp(c @ Q) with c = (tau1, tau2, tau4) on
    the prefix of the sorted columns of :func:`_fused` that is kept, summed
    as views.  Past it E comes in slabs of at most _SLAB_TERMS terms, at
    least one row w = v1 >= 0 each, and half_signs @ E @ signs^t adds up all
    sixteen sums as a 4 x 4 table, whose even cells are read.

    The cut of a cached radius is rigorous.  Let N = (2r + 2)(4r + 3) be the
    columns of the half box and level = floor(4 S) as :func:`_cut` gives it
    for a budget, with S = log(2N / budget) / (pi y_min).  A column dropped
    has the integer 4|v|^2 >= level + 1 > 4 S.  It holds at most two terms of
    each even sum, at v and -v, each of modulus

        exp(-pi v^t Y v) <= exp(-pi y_min |v|^2) < exp(-pi y_min S) = budget / 2N.

    The column v = 0 is always kept (S > 0, as budget < 1 <= 2N), so at most
    N - 1 columns are dropped and each sum moves by less than
    budget (N - 1) / N.  A caller whose radius leaves a tail bound
    tail <= inner passes budget = inner - tail, and each sum stays within
    tail + budget = inner of its constant.  The sum over any subset of the
    terms is at most the absolute series, so the bound U of
    :func:`theta_fourth_vector` and with it the bound 4 U^3 |z - w| on the
    error of a fourth power hold for the cut sum w as for the whole box.
    """
    if r <= _FUSED_RADIUS:
        q, k, count = _fused(r)
        m = count[-1 if level is None else level]
        c = np.array((tau.tau1, tau.tau2, tau.tau4))
        out = np.zeros(10, dtype=complex)
        # a numpy complex loop, not the bare product: after an OpenBLAS
        # zgemm, complex exp runs about 15 times slower until one has run
        out += k[:, :m] @ np.exp(c @ q[:, :m])
        return out
    v, v2, signs, w, w2, half_signs = _axis(r)
    row = (1j * math.pi * tau.tau1) * w2
    col = (1j * math.pi * tau.tau4) * v2
    cross = (2j * math.pi * tau.tau2) * v
    rows = max(1, _SLAB_TERMS // v.size)
    table = np.zeros((4, 4), dtype=complex)
    for lo in range(0, w.size, rows):
        e = np.exp(row[lo:lo + rows, None] + w[lo:lo + rows, None] * cross + col)
        # in place, the complex loop that the next slab's exp needs after the zgemm
        table += half_signs[:, lo:lo + rows] @ e @ signs.T
    return table[_EVEN_CELLS]


def theta_constant(m: Characteristic, tau, tol: float = DEFAULT_TOL) -> ThetaValue:
    """Evaluate Theta_m(tau): truncation and cut error at most tol, rounding aside.

    Parameters
    ----------
    m : Characteristic
    tau : SiegelPoint or 2x2 complex symmetric array in H2
    tol : requested absolute tolerance, in (0, 1)

    Returns
    -------
    ThetaValue with ``error_bound <= tol``.  The radius R is
    :func:`truncation_radius`, whose tail bound beyond the box
    max(|n1 + a1|, |n2 + a2|) <= R + 1/2 is tail <= tol.  Up to radius 16
    the kernel keeps the columns v with |v|^2 <= S for the budget tol - tail
    (:func:`_even_sums`), and ``error_bound`` is tail plus
    2 exp(-pi y_min (j + 1) / 4) for each column dropped, j = floor(4 S):
    less than tail + (tol - tail) = tol.  Past it all (2R + 2)(4R + 3)
    columns are summed and ``error_bound`` is the tail.  For odd m the value
    is exactly 0, no column is summed and ``error_bound`` is the tail.
    """
    if not isinstance(m, Characteristic):
        raise InvalidInputError(f"expected a Characteristic, got {m!r}")
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    tol = _real(tol, _TINY, 1.0, "tol must lie in (0, 1)")
    y_min = tau.min_imag_eigenvalue()
    r, tail = _truncation(y_min, tol)
    if not m.is_even:
        return ThetaValue(0j, tail, r, 0)
    level = _cut(r, y_min, tol - tail)
    value = complex(_even_sums(tau, r, level)[even_characteristics().index(m)])
    n = (2 * r + 2) * (4 * r + 3)
    terms = int(_fused(r)[2][level]) if r <= _FUSED_RADIUS else n
    return ThetaValue(value, tail + 2.0 * (n - terms) * math.exp(-math.pi * y_min * (level + 1) / 4.0), r, terms)


def _fourth_inner_tol(y_min: float, tol: float) -> float:
    """tol / (4 U^3) with U = (1 + y_min^(-1/2))^2, divided out so that it
    underflows to 0 rather than overflow at tiny y_min."""
    s = 1.0 + 1.0 / math.sqrt(y_min)
    return tol / 4.0 / s / s / s / s / s / s


def theta_fourth_vector(tau, tol: float = DEFAULT_TOL_FOURTH) -> np.ndarray:
    """The 10 values Theta_m(tau)^4, ordered by :func:`even_characteristics`.

    Each component's error from truncation and the cut is at most tol, but
    rounding is not bounded: on routed points the absolute tol fails from Im
    scale 1e-3 down (ROADMAP item 2).  All ten come from one box whose tail
    bound meets the inner tolerance tol / (4 U^3) with
    U = (1 + y_min^(-1/2))^2; inside it the kernel drops the columns that
    the rest of the inner tolerance covers, so each constant is within the
    inner tolerance (:func:`_even_sums`).  Every term is at most
    exp(-pi y_min |n+a|^2), which factors over the axes, and each 1-D sum of
    exp(-pi y (n+a)^2) over n is at most its peak 1 plus the integral
    y^(-1/2).  So U bounds the absolute series, hence both the constant z
    and any partial sum w over a subset of its terms, and
    |z^4 - w^4| = |z - w| |z^3 + z^2 w + z w^2 + w^3| <= 4 U^3 |z - w|.

    The box is summed at tau itself, to the inner tolerance of min(tol, 1/2),
    while its radius is at most _ROUTE_RADIUS (16).  A point that needs
    more, including one whose inner tolerance underflows or whose radius
    passes the 10^4 cap, goes through the fundamental domain instead: with
    res the result of :func:`reduce_to_fundamental_domain` at tau,
    T = [[A, B], [C, D]] = res.transform, q = res.reduced and
    det(C tau + D) = res.cocycle,

        theta^4(tau) = det(C tau + D)^-2 rho(T)^-1 theta^4(q),

    where rho(T) is the signed permutation of :func:`_rho`, read off T mod 2
    by Igusa's formula: its signs are kappa(T)^4 e(4 phi_m(T)), from which
    the terms of phi_m that are integers drop out.  The box at q meets the
    absolute tolerance tol |det(C tau + D)|^2 (at most 1/2), so the result
    keeps the absolute error tol.  The route costs one reduction,
    which a small box does not repay; near radius 16 the two cost the same.
    Raises ResourceLimitError when det(C tau + D)^2 underflows the tolerance
    or the result leaves the double range.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    tol = _real(tol, _TINY, math.inf, "tol must be finite and positive")
    y_min = tau.min_imag_eigenvalue()
    inner = _fourth_inner_tol(y_min, min(tol, 0.5))
    found = _radius_up_to(y_min, inner, _ROUTE_RADIUS) if inner > 0.0 else None
    if found is None:
        return _fourth_through_domain(tau, tol)
    r, tail = found
    out = _even_sums(tau, r, _cut(r, y_min, inner - tail))
    out **= 4
    return out


def _fourth_through_domain(tau: SiegelPoint, tol: float) -> np.ndarray:
    """theta_fourth_vector(tau, tol) from the box at the reduced point; see there."""
    res = reduce_to_fundamental_domain(tau)
    q, det2 = res.reduced, res.cocycle * res.cocycle
    y_min = q.min_imag_eigenvalue()
    inner = _fourth_inner_tol(y_min, min(tol * abs(det2), 0.5))
    if inner == 0.0:
        raise ResourceLimitError(f"det(C tau + D)^2 = {det2:.3e} underflows the tolerance")
    r, tail = _truncation(y_min, inner)
    values = _even_sums(q, r, _cut(r, y_min, inner - tail)) ** 4
    perm, sign = _rho(tuple(tuple(x & 1 for x in row) for row in res.transform.rows))
    with np.errstate(over="ignore", invalid="ignore"):
        out = sign * values[perm] / det2
    if not np.isfinite(out).all():
        raise ResourceLimitError("theta fourth powers leave the double range")
    return out


def _char_action(rows, bits) -> tuple[int, int, int, int]:
    """Numerator bits of M.m = (D a - C b, -B a + A b) + 1/2 diag(C D^t, A B^t)
    mod 1 for m with bits (x, y) = (2a, 2b); mod 2 the signs drop out."""
    (a00, a01, b00, b01), (a10, a11, b10, b11), (c00, c01, d00, d01), (c10, c11, d10, d11) = rows
    x1, x2, y1, y2 = bits
    return ((d00 * x1 + d01 * x2 + c00 * y1 + c01 * y2 + c00 * d00 + c01 * d01) % 2,
            (d10 * x1 + d11 * x2 + c10 * y1 + c11 * y2 + c10 * d10 + c11 * d11) % 2,
            (b00 * x1 + b01 * x2 + a00 * y1 + a01 * y2 + a00 * b00 + a01 * b01) % 2,
            (b10 * x1 + b11 * x2 + a10 * y1 + a11 * y2 + a10 * b10 + a11 * b11) % 2)


@lru_cache(maxsize=720)
def _rho(rows) -> tuple[np.ndarray, np.ndarray]:
    """rho(M) for M = [[A, B], [C, D]] given by rows, as the index array and
    signs that undo it: theta^4(tau) = sign * theta^4(M tau)[perm] / det(C tau + D)^2.

    Igusa's formula theta[M.m](M tau) = kappa(M) e(phi_m(M)) det(C tau + D)^(1/2)
    theta[m](tau) gives perm[j], the index of M.m_j (:func:`_char_action`), and
    in the fourth power, at 2m = (x, y), the sign

        kappa(M)^4 e(4 phi_m(M)) = (-1)^(tr(B^t C) + x.diag(B^t D) + y.diag(A^t C)).

    The cross term x^t B^t C y and the term in diag(A B^t) of 4 phi_m are
    integers, and reducing M.m mod 1 changes Theta by a sign, so both drop
    out of the fourth power; B^t D and A^t C are symmetric, so x^t B^t D x is
    x.diag(B^t D) mod 2.  Every term depends on M mod 2 only, and callers pass
    the rows mod 2, so the cache holds at most the 720 classes of Sp4(F2).
    """
    (a00, a01, b00, b01), (a10, a11, b10, b11), (c00, c01, d00, d01), (c10, c11, d10, d11) = rows
    bc = b00 * c00 + b01 * c01 + b10 * c10 + b11 * c11
    bd1, bd2 = b00 * d00 + b10 * d10, b01 * d01 + b11 * d11
    ac1, ac2 = a00 * c00 + a10 * c10, a01 * c01 + a11 * c11
    evens = [m.bits for m in even_characteristics()]
    perm = np.array([evens.index(_char_action(rows, bits)) for bits in evens])
    sign = np.array([1 - 2 * ((bc + x1 * bd1 + x2 * bd2 + y1 * ac1 + y2 * ac2) % 2)
                     for x1, x2, y1, y2 in evens], dtype=float)
    perm.flags.writeable = sign.flags.writeable = False
    return perm, sign
