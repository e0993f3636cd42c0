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
a kernel exponentiates only the half n1 + a1 >= 0.  Each public function
has one kernel.

:func:`theta_constant` sums the whole half box at tau in its separable form,
sign rows @ exp(exponents) @ sign rows, slab by slab in O(R) memory, and
reads its own cell of the 4 x 4 table that comes out (:func:`_table`).
Nothing inside the box is dropped, so its error bound is the tail.

:func:`theta_fourth_vector` takes the fourth powers from the four b = 0
constants at 2 tau, by the duplication formula

    Theta_(a, b)(tau)^2 = sum over c in {0, 1/2}^2 of (-1)^(4 b.c) Theta_(c, 0)(2 tau) Theta_(c + a, 0)(2 tau)

(Dupont, thesis, 2006; Labrande and Thome, ANTS XII, 2016), one fixed
signed 10 x 16 map of their products, squared.  Flattened, the half box
gives the four as K @ exp(c @ Q) with c = (2 tau1, 2 tau2, 2 tau4), Q the
exponents and K the signs, in one table of the box at radius 17 with the
columns v = n + a sorted by |v|^2 (:func:`_fused`).  R takes the tail alone
to below the inner tolerance; the rest of it is a budget for the terms
inside the box too small to matter.  Every term at 2 tau is at most
exp(-pi y2 |v|^2) with y2 = 2 y_min, so the kernel sums only the prefix, a
disk, of the columns with |v|^2 <= S = log(2N / budget) / (pi y2), N the
columns of the box at R, as ellipsoid summation does (Deconinck et al.,
Math. Comp. 73, 2004); the proof at :func:`_b0_sums` holds for every
R <= 17.  With U2 = (1 + y2^(-1/2))^2, which bounds the absolute series at
2 tau, the four sums within delta give squares within 8 U2 delta and fourth
powers within 64 U2^3 delta, so the box at 2 tau is summed to
tol / (64 U2^3) (proof at :func:`_fourth_inner_tol`).  That is the same
absolute contract as fourth powers of the sums at tau, but a small
coordinate comes out of a sum of products as large as U2^2, so its relative
error is larger.

The fourth powers are weight-2 forms for the level-2 group, so for M =
[[A, B], [C, D]] in Sp4(Z)

    theta^4(M tau) = det(C tau + D)^2 rho(M mod 2) theta^4(tau),

with rho a signed 10x10 permutation that depends on M mod 2 only (Igusa,
Theta Functions, 1972, ch. II.5 and ch. V; Mumford, Tata Lectures on Theta
I, II.5).  Igusa's transformation formula gives it in closed form: rho
sends m to M.m with the sign (-1)^(tr(B^t C) + x.diag(B^t D) + y.diag(A^t C))
at 2m = (x, y), the fourth power of kappa(M) e(phi_m(M)); the other terms
of phi_m are integers and drop out of the fourth power.
:func:`theta_fourth_vector` uses it for points whose box at 2 tau would be
large: it sums the box at 2q instead, with q = M tau the fundamental-domain
image of tau by the witness M of the reduction loop (the core of
:func:`~siegel_runge.halfspace.reduce_to_fundamental_domain`), at the
tolerance scaled by |det(C tau + D)|^2, and maps the values back through
rho.  So the cut kernel never sums past radius 17.
Theta constants themselves pick up eighth roots of unity under Sp4(Z), so
:func:`theta_constant` always sums at tau.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, total_ordering

import numpy as np

from .errors import (_TINY, DEFAULT_TOL, DEFAULT_TOL_FOURTH, InconsistencyError, InvalidInputError,
                     ResourceLimitError, _integral, _real, _Record, _sequence)
from .halfspace import SiegelPoint, _act_entries, _check_entries, _least_eigenvalue, _reduce, _symplectic_rows


_MAX_RADIUS = 10_000

#: theta_fourth_vector sums boxes at 2 tau up to this radius directly and
#: evaluates points that need more through the fundamental domain.  The two
#: cost the same at radius 14, and the route is faster from 15 on.  Median
#: over points of the median psi time per point, direct/routed in us, one
#: pinned CPU, the distinct embed_unreduced inputs of seeds 1, 7 and 11 at
#: each radius (29, 25, 24, 21, 21 and 18 of them at radius 12 to 17), each
#: routed point with the gate one below its radius, 15 interleaved rounds:
#:
#:   radius               12          13          14          15          16           17
#:   back to back    60.7/77.7   70.5/79.0   78.3/77.5   87.7/79.0   99.8/78.5   103.6/80.3
#:   16 control      63.9/80.8   70.5/81.3   82.4/83.9   92.8/82.9   105.0/83.5  108.8/83.8
#:
#: The second row runs 16 control-kernel calls before each call, as the
#: bench does.  The two settings disagree at 14, so the gate takes the
#: higher radius: 15 is the lowest that routes no slower in both.
_ROUTE_RADIUS = 14

#: The table of _fused holds the box at this radius, the most 2q needs for reduced q.
_DOMAIN_RADIUS = 17

#: Most exponentials per slab of rows of the half box that _table sums.
_SLAB_TERMS = 1 << 12


@total_ordering
class Characteristic(_Record):
    """Half-integral characteristic, stored as numerator bits of (a, b).

    ``bits = (a1, a2, b1, b2)`` with each entry 0 or 1 standing for the
    exact dyadic value 0 or 1/2.  Characteristics are ordered by their bits.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, int, int, int]):
        what = "characteristic bits must be four values in {0, 1}"
        read = tuple(_sequence(bits, _integral, what))
        if len(read) != 4 or not {0, 1}.issuperset(read):
            raise InvalidInputError(f"{what}, got {bits!r}")
        object.__setattr__(self, "bits", read)

    def __lt__(self, other):
        return self.bits < other.bits if other.__class__ is self.__class__ else NotImplemented

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


class ThetaValue(_Record):
    """A computed theta constant with a rigorous bound on truncation.

    ``radius`` is the box radius R, ``terms`` the number of half-box
    columns exponentiated, all (2R + 2)(4R + 3) of them (0 for an odd
    constant, which is exactly 0), and ``error_bound`` the tail beyond the
    box, without the floating-point rounding, which exceeded it at
    tol 1e-14 on level-2 images (ROADMAP item 2).
    """

    __slots__ = ("value", "error_bound", "radius", "terms")


# Every term satisfies |term| <= exp(-pi y_min |n+a|^2) and |n+a| >= k - c
# with k = max(|n1|, |n2|) and c = |a| <= sqrt(2)/2; a max-norm ring holds 8k
# points.  For k > R, (k-c)^2 >= (R+1-c)^2 + 2(R+1-c)(k-R-1) turns the tail
# into a dominated arithmetico-geometric series.
_A_NORM = math.sqrt(2.0) / 2.0


def tail_bound(radius: int, y_min: float) -> float:
    """Upper bound for the absolute tail beyond the box max|n_i| <= radius,
    hence beyond the larger box |n_i + a_i| <= radius + 1/2 that is summed."""
    radius = _integral(radius, 0, "radius must be an integer >= 0")
    y_min = _real(y_min, _TINY, math.inf, "y_min must be finite and positive")
    # past 2^1000 pi y_min s^2 > 10^279 for every y_min read: the bound underflows
    return _tail(radius, y_min) if radius < 2**1000 else 0.0


def _tail(radius: int, y_min: float) -> float:
    """:func:`tail_bound` of arguments already read."""
    s = radius + 1 - _A_NORM
    # y_min s first: pi y_min would keep only a few bits of a subnormal y_min
    ys = y_min * s
    e = math.exp(-math.pi * ys * s)
    x = 2.0 * math.pi * ys
    rho = math.exp(-x)
    # 1 - rho without cancellation: it stays positive when rho rounds to 1.
    q = -math.expm1(-x)
    if e == 0.0:
        # at tiny y_min the factor can overflow where e underflows: the product in logs
        return math.exp(math.log(8.0 * ((radius + 1) * q + rho)) - 2.0 * math.log(q) - math.pi * ys * s)
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
    # log(8 / tol * max(1, 1 / (4 pi y_min))) as a difference: the product overflows at tiny tol
    log_lead = math.log(8.0 / min(1.0, 4.0 * math.pi * y_min)) - math.log(tol)
    start = math.sqrt(log_lead / (math.pi * y_min)) + _A_NORM - 1.0
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
    O(r); the matrices of :func:`_fused` are O(r^2).
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


def _duplication() -> np.ndarray:
    """The signed map D (10 x 16) with Theta_m(tau)^2 = D @ kron(t, t), m even
    in the order of :func:`even_characteristics` and t the four
    Theta_(c, 0)(2 tau) in the order c = 00, 01, 10, 11.

    The duplication formula: with m = (a, b) and c in {0, 1/2}^2,

        Theta_(a, b)(tau)^2 = sum over c of (-1)^(4 b.c) Theta_(c, 0)(2 tau) Theta_(c + a, 0)(2 tau).

    In the product of the series for n and n', (n + a) tau (n + a) +
    (n' + a) tau (n' + a) = 2 (u tau u + w tau w) with u = (n + n')/2 + a and
    w = (n - n')/2.  (n, n') -> (u, w) is a bijection of Z^2 x Z^2 onto the
    pairs u in c + a + Z^2, w in c + Z^2 over c in {0, 1/2}^2, and the phase
    (-1)^(2 (n + n').b) is (-1)^(4 b.c).  Theta_(c + a, 0) needs c + a only
    mod 1, as b = 0.  For odd m the terms at c and c + a cancel, so the odd
    rows are not kept.
    """
    d = np.zeros((10, 16), dtype=complex)
    for j, (a1, a2, b1, b2) in enumerate(m.bits for m in even_characteristics()):
        for c1, c2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            d[j, 4 * (2 * c1 + c2) + 2 * (c1 ^ a1) + (c2 ^ a2)] = (-1) ** (c1 * b1 + c2 * b2)
    d.flags.writeable = False
    return d


_DUPLICATION = _duplication()

#: kron(t, t) of four values as t[_KRON_LEFT] * t[_KRON_RIGHT].
_KRON_LEFT, _KRON_RIGHT = np.repeat(np.arange(4), 4), np.tile(np.arange(4), 4)


@lru_cache(maxsize=1)
def _fused() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (Q, K, count) on the half box w x v of :func:`_axis`, the
    kernel of :func:`_b0_sums`.  With Q (3 x N) = i pi (w^2, 2 w v, v^2),
    c @ Q is the exponent at (v1, v2) = (w, v); row 2 a1 + a2 of K (4 x N) is
    half_signs[2 a1] (x) signs[2 a2], the terms of Theta_(a, 0).  The
    columns come sorted by the integer 4|v|^2, so that those with
    4|v|^2 <= j are a prefix of length count[j], j = 0 .. 2 * 35^2.  At
    radius _DOMAIN_RADIUS, 17, that is N = 2556 columns in 299 KiB."""
    v, v2, signs, w, w2, half_signs = _axis(_DOMAIN_RADIUS)
    w, w2 = w[:, None], w2[:, None]
    q = 1j * math.pi * np.stack(np.broadcast_arrays(w2, 2.0 * w * v, v2)).reshape(3, -1)
    k = (half_signs[::2, None, :, None] * signs[None, ::2, None, :]).reshape(4, -1)
    norm = (4.0 * (w2 + v2)).astype(np.intp).ravel()
    order = np.argsort(norm, kind="stable")
    q, k, count = q[:, order], k[:, order], np.cumsum(np.bincount(norm))
    q.flags.writeable = k.flags.writeable = count.flags.writeable = False
    return q, k, count


def _cut(r: int, y_min: float, budget: float) -> int:
    """The level j = floor(4 S) of the columns 4|v|^2 <= j that
    :func:`_b0_sums` keeps within an error budget, with
    S = log(2N / budget) / (pi y_min) and N = (2r + 2)(4r + 3) the columns of
    the half box at r; level 2 (2r + 1)^2, all of that box, for a budget of 0
    or an S past it.  S carries a relative error of a few units in the last
    place; the factor 1 + 1e-12 covers it and can only keep more columns."""
    top = 2 * (2 * r + 1) ** 2
    if not budget > 0.0:
        return top
    s4 = 4.0 * (1.0 + 1e-12) * math.log(2.0 * (2 * r + 2) * (4 * r + 3) / budget) / (math.pi * y_min)
    return top if s4 >= top else math.floor(s4)


def _b0_sums(c: np.ndarray, level: int) -> np.ndarray:
    """The four Theta_(a, 0), a = 00, 01, 10, 11, at the point with entries
    c = (t1, t2, t4), over the columns v = (v1, v2) with 4|v|^2 <= level of
    the box max(|n1 + a1|, |n2 + a2|) <= 17 + 1/2 of :func:`_fused`, a prefix
    of its sorted columns, as K @ exp(c @ Q) on views.  The box is symmetric
    under v -> -v, which keeps each term of a sum with b = 0, so a sum is
    twice the rows v1 > 0 plus the row v1 = 0, weights that scale exactly.

    The cut is rigorous at any radius r <= 17.  Let y_min be the least
    eigenvalue of Im of the point summed, N = (2r + 2)(4r + 3) the columns
    of the half box at r and level = floor(4 S) as :func:`_cut` gives it,
    with S = log(2N / budget) / (pi y_min).  The box at r lies in the box
    at 17, so a column of the box at r left out has the integer
    4|v|^2 >= level + 1 > 4 S.  It holds at most two terms of each sum, at v
    and -v, each of modulus

        exp(-pi v^t Y v) <= exp(-pi y_min |v|^2) < exp(-pi y_min S) = budget / 2N.

    The column v = 0 is always kept (S > 0, as budget < 1 <= 2N), so at most
    N - 1 columns of the box at r are left out (none at the top level), and
    they move each sum by less than budget.  Columns kept past the box at r
    are terms beyond max|n_i| <= r, so those missed there sum to at most the
    tail bound tail of r.  With budget = inner - tail, each sum is within
    inner of its constant; a sum over any subset of the terms is at most
    the absolute series, so :func:`_fourth_inner_tol` holds for it too.
    """
    q, k, count = _fused()
    m = count[level]
    return k[:, :m] @ np.exp(c @ q[:, :m])


def _table(tau: SiegelPoint, r: int) -> np.ndarray:
    """The even Theta_m(tau) over the box max(|n1 + a1|, |n2 + a2|) <= r + 1/2
    as cells [2 a1 + b1, 2 a2 + b2] of a 4 x 4 table, m = (a1, a2, b1, b2);
    the six odd cells hold no sum.

    The exponentials E on the joint axis v x v of :func:`_axis` hold all
    four shifts a as blocks and the phase (-1)^(n.b) factors over the axes.
    The box is symmetric under v -> -v, which keeps E and flips the phase by
    (-1)^(4 a.b): an even sum is twice the rows v1 > 0 plus the row v1 = 0,
    weights that scale exactly, while in an odd cell the rows v1 > 0 do not
    cancel.  E comes in slabs of at most _SLAB_TERMS terms, at least one row
    w = v1 >= 0 each, and half_signs @ E @ signs^t adds up the table in
    O(r) memory.
    """
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
    return table


def theta_constant(m: Characteristic, tau, tol: float = DEFAULT_TOL) -> ThetaValue:
    """Evaluate Theta_m(tau): truncation error at most tol, rounding aside.

    Parameters
    ----------
    m : Characteristic
    tau : SiegelPoint or 2x2 complex symmetric array in H2
    tol : requested absolute tolerance, in (0, 1)

    Returns
    -------
    ThetaValue with ``error_bound <= tol``.  The radius R is
    :func:`truncation_radius`, whose tail bound beyond the box
    max(|n1 + a1|, |n2 + a2|) <= R + 1/2 is tail <= tol.  All
    (2R + 2)(4R + 3) columns of the half box are summed (:func:`_table`),
    so ``error_bound`` is the tail.  For odd m the value is exactly 0, no
    column is summed and ``error_bound`` is the tail.
    """
    if not isinstance(m, Characteristic):
        raise InvalidInputError(f"expected a Characteristic, got {m!r}")
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    tol = _real(tol, _TINY, 1.0, "tol must lie in (0, 1)")
    r, tail = _truncation(tau.min_imag_eigenvalue(), tol)
    if not m.is_even:
        return ThetaValue(0j, tail, r, 0)
    a1, a2, b1, b2 = m.bits
    value = complex(_table(tau, r)[2 * a1 + b1, 2 * a2 + b2])
    return ThetaValue(value, tail, r, (2 * r + 2) * (4 * r + 3))


def _fourth_inner_tol(y2: float, tol: float) -> float:
    """The tolerance delta = tol / (64 U2^3) on each Theta_(c, 0)(2 tau) that
    keeps every Theta_m(tau)^4 of the duplication formula within tol, with
    y2 = 2 y_min the least eigenvalue of Im(2 tau) and U2 = (1 + y2^(-1/2))^2.

    Every term at 2 tau is at most exp(-pi y2 |n + a|^2), which factors over
    the axes, and each 1-D sum of exp(-pi y2 (n + a)^2) over n is at most its
    peak 1 plus the integral y2^(-1/2).  So U2 bounds the absolute series at
    2 tau, hence each A_c = Theta_(c, 0)(2 tau) and each sum a_c over a
    subset of its terms, the cut sums of :func:`_b0_sums` among them.  If
    |A_c - a_c| <= delta for all four c, the square
    theta_m^2 = sum_c +-A_c A_(c+a) and its image s_m = sum_c +-a_c a_(c+a)
    differ by at most

        sum_c |A_c| |A_(c+a) - a_(c+a)| + |a_(c+a)| |A_c - a_c| <= 4 (2 U2 delta) = 8 U2 delta,

    and |theta_m^2|, |s_m| <= 4 U2^2, so
    |theta_m^4 - s_m^2| = |theta_m^2 - s_m| |theta_m^2 + s_m| <= 64 U2^3 delta = tol.
    Rounding is not bounded (ROADMAP item 2).  Divided out term by term, so
    that it underflows to 0 rather than overflow at tiny y2.
    """
    s = 1.0 + 1.0 / math.sqrt(y2)
    return tol / 64.0 / s / s / s / s / s / s


def _fourth_powers(t1: complex, t2: complex, t4: complex, y_min: float, tol: float, cap: int) -> np.ndarray | None:
    """The ten Theta_m(tau)^4 within min(tol, 1/2) at the point of H2 with
    entries (t1, t2, t4) and least eigenvalue y_min of Im(tau), or None if
    the inner tolerance underflows or the box at 2 tau needs a radius past
    cap <= 17: :func:`_duplication` of the four Theta_(c, 0)(2 tau) of
    :func:`_b0_sums`.  Neither tau nor 2 tau is built as a SiegelPoint.  The
    fourth powers have exact period 2 in each real entry, so a real part
    past 1 is first taken mod 2, exactly: the exponent would round a large
    Re(tau) w^2 and lose the phases.  A reduced point never needs it."""
    y2 = 2.0 * y_min
    inner = _fourth_inner_tol(y2, min(tol, 0.5))
    found = _radius_up_to(y2, inner, cap) if inner > 0.0 else None
    if found is None:
        return None
    r, tail = found
    if not (-1.0 <= t1.real <= 1.0 and -1.0 <= t2.real <= 1.0 and -1.0 <= t4.real <= 1.0):
        t1, t2, t4 = (complex(math.remainder(t.real, 2.0), t.imag) for t in (t1, t2, t4))
    t = _b0_sums(np.array((2.0 * t1, 2.0 * t2, 2.0 * t4)), _cut(r, y2, inner - tail))
    # both products are matrix-vector (zgemv), which unlike a zgemm leave the next exp at full speed
    s = _DUPLICATION @ (t[_KRON_LEFT] * t[_KRON_RIGHT])
    s *= s
    return s


def theta_fourth_vector(tau, tol: float = DEFAULT_TOL_FOURTH) -> np.ndarray:
    """The 10 values Theta_m(tau)^4, ordered by :func:`even_characteristics`.

    Each component's error from truncation and the cut is at most tol, but
    rounding is not bounded: on routed points the absolute tol fails from Im
    scale 1e-3 down (ROADMAP item 2).  The fourth powers come from the four
    b = 0 constants at 2 tau by the duplication formula

        Theta_(a, b)(tau)^2 = sum over c in {0, 1/2}^2 of (-1)^(4 b.c) Theta_(c, 0)(2 tau) Theta_(c + a, 0)(2 tau),

    one fixed signed map (:func:`_duplication`) from their sixteen products
    to the ten squares, which are then squared.  Im(2 tau) has least
    eigenvalue y2 = 2 y_min, so the box at 2 tau needs about 1/sqrt(2) of
    the radius at tau and the cut keeps about half the columns.  All four
    come from one box whose tail bound meets the inner tolerance
    tol / (64 U2^3), U2 = (1 + y2^(-1/2))^2, with the proof at
    :func:`_fourth_inner_tol`; inside it the kernel drops the columns that
    the rest of the inner tolerance covers (:func:`_b0_sums`).  The
    absolute contract is the one a direct fourth power had, but a small
    coordinate now comes out of a cancelling sum of products of values of
    size up to U2, so its relative error grows as the coordinate shrinks.

    The box is summed at 2 tau, each Re(tau) entry taken mod 2, to the inner
    tolerance of min(tol, 1/2) while its radius is at most _ROUTE_RADIUS
    (14).  A point that needs more, or whose inner tolerance underflows,
    goes through the fundamental domain: with T = [[A, B], [C, D]] the
    witness of the reduction loop at tau (the core of
    :func:`~siegel_runge.halfspace.reduce_to_fundamental_domain`) and
    q = T tau,

        theta^4(tau) = det(C tau + D)^-2 rho(T)^-1 theta^4(q),

    where rho(T) is the signed permutation of :func:`_rho`, read off T mod 2
    by Igusa's formula: its signs are kappa(T)^4 e(4 phi_m(T)), from which
    the terms of phi_m that are integers drop out.  theta^4(q) comes from the
    box at 2q, to the absolute tolerance tol |det(C tau + D)|^2 (at most
    1/2), so the result keeps the absolute error tol.  Raises
    ResourceLimitError when tol |det(C tau + D)|^2 underflows at the
    reduced point or the result leaves the double range.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    tol = _real(tol, _TINY, math.inf, "tol must be finite and positive")
    t1, t2, t4 = tau.tau1, tau.tau2, tau.tau4
    values = _fourth_powers(t1, t2, t4, _least_eigenvalue(t1.imag, t2.imag, t4.imag), tol, _ROUTE_RADIUS)
    return _fourth_through_domain(tau, tol) if values is None else values


def _fourth_through_domain(tau: SiegelPoint, tol: float) -> np.ndarray:
    """theta_fourth_vector(tau, tol) from the box at twice the reduced point; see there.

    The route calls the reduction loop, _reduce, and builds none of the
    records of reduce_to_fundamental_domain, but keeps its checks: the
    witness T is checked to be symplectic (_symplectic_rows), and the image
    q and the cocycle det(C tau + D) come from one _act_entries at tau, as
    there, with q checked to lie in H2 (_check_entries).  So q and det2 are
    bit for bit those of the public result.

    That box has radius at most _DOMAIN_RADIUS = 17, and a point that needs
    more is not reduced.  Y = Im(q) is Minkowski reduced, 0 <= 2 y2 <= y1 <= y4
    (here y2 is the off-diagonal entry), so the least eigenvalue
    (y1 + y4 - sqrt((y4 - y1)^2 + 4 y2^2)) / 2 is at least y1 / 2, as
    sqrt((y4 - y1)^2 + y1^2) <= y4; and |q1| >= 1 with |Re q1| <= 1/2 gives
    y1 >= sqrt(3)/2.  So Im(2q) has least eigenvalue at least sqrt(3)/2,
    and even at the smallest positive inner tolerance, 5e-324, the tail
    bound falls below it at radius 17 (16 at 1e-300), and still does at
    0.99 sqrt(3)/2, a margin far wider than the rounding of the reduction.
    A smaller inner tolerance is 0 and is refused.

    The division by det2 = det(C tau + D)^2 cannot overflow once |det2| is
    past a bound read off q, so only a smaller or infinite |det2| pays for
    a checked division.  With y2 = 2 y_min the least eigenvalue of Im(2q)
    and U2 = (1 + y2^(-1/2))^2, each cut sum at 2q is at most U2 in modulus,
    as the absolute series is (the proof at :func:`_fourth_inner_tol`), so
    each square of the duplication formula is at most 4 U2^2 and each value
    at most V = 16 U2^4 + 1/2.  The 1/2 covers rounding: a box at radius 17
    or less meets an inner tolerance below 1/2 only for y2 > 0.023, so
    U2 < 57 and 16 U2^4 < 1.7e8, which sums of at most 2556 terms round by
    less than 1e-3.  numpy divides complex numbers by Smith's method, which
    keeps each part of a quotient within its modulus up to rounding, and
    its reciprocal 1 / (c (1 + r^2)), with c the larger part of det2, is
    finite as |c| >= |det2| / sqrt(2) is.  So for |det2| >= 2 V / DBL_MAX
    every part of values / det2 is below DBL_MAX / 2.  At a reduced q,
    y2 >= sqrt(3)/2 gives U2 <= (1 + (sqrt(3)/2)^(-1/2))^2 = 4.30, V < 5491
    and a bound below 6.2e-305.  |det2| falls under it at points such as
    SiegelPoint(1.1e-77j, 0.2e-77j, 1.3e-77j), where it is 1.9e-308.
    """
    t1, t2, t4 = tau.tau1, tau.tau2, tau.tau4
    rows, _ = _reduce(t1, t2, t4)
    (q1, q2, q4), cocycle = _act_entries(_symplectic_rows(rows), t1, t2, t4)
    _check_entries(q1, q2, q4)
    y_min = _least_eigenvalue(q1.imag, q2.imag, q4.imag)
    det2 = cocycle * cocycle
    scaled = tol * abs(det2)
    values = _fourth_powers(q1, q2, q4, y_min, scaled, _DOMAIN_RADIUS)
    if values is None:
        if _fourth_inner_tol(2.0 * y_min, min(scaled, 0.5)) > 0.0:
            raise InconsistencyError(
                f"the reduced point {SiegelPoint(q1, q2, q4)} needs a box radius past {_DOMAIN_RADIUS} at 2q")
        raise ResourceLimitError(f"det(C tau + D)^2 = {det2:.3e} underflows the tolerance" if abs(det2) < 1.0
                                 else f"the tolerance {tol:.1e} underflows at the reduced point")
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    perm, sign = _rho(((a0 & 1, a1 & 1, a2 & 1, a3 & 1), (b0 & 1, b1 & 1, b2 & 1, b3 & 1),
                       (c0 & 1, c1 & 1, c2 & 1, c3 & 1), (d0 & 1, d1 & 1, d2 & 1, d3 & 1)))
    out = sign * values[perm]
    u2 = (1.0 + 1.0 / math.sqrt(2.0 * y_min)) ** 2
    if 2.0 * (16.0 * u2 ** 4 + 0.5) / sys.float_info.max <= abs(det2) < math.inf:
        return out / det2
    with np.errstate(over="ignore", invalid="ignore"):
        out /= det2
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
