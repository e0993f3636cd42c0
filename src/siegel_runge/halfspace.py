"""Degree-2 Siegel upper half-space and the integral symplectic group.

The half-space H2 consists of symmetric complex 2x2 matrices with positive
definite imaginary part.  Sp4(Z) acts on it by fractional linear
transformations tau -> (A tau + B)(C tau + D)^-1, and every orbit meets the
classical fundamental domain cut out by Minkowski reduction of Im(tau),
bounded real parts, and the nineteen Gottschling determinant conditions.
The cusp tube Im(tau4) >= t is cut out inside that domain, so its test
lives here too.

Everything here is plain Python on complex numbers and integer rows; matrix
arguments, arrays too, are read by _square_rows.  Only SiegelPoint.matrix and
SymplecticMatrix.mat import numpy, when called, because they return arrays.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Set
from functools import lru_cache

from .errors import (_TUBE, MIN_TUBE_PARAMETER, ConditioningError, InvalidInputError, NonConvergenceError,
                     ResourceLimitError, _integral, _real, _Record, _sequence, _set)


#: Tolerance of the reduction loop: a Gottschling step fires below 1 - _TOL.
_TOL = 1e-9

#: |det(C tau + D)| below this times min(1, |m00 m11| + |m01 m10|), the size
#: of the two products it is the difference of, raises ConditioningError in
#: act(), and so does det(C tau + D) = 0 when both products underflow.
CONDITION_EPS = 1e-12

_MAX_ITER = 1000

#: Twice the bound 2 eps on the rounding of a Gram entry of _minkowski_gl2,
#: relative to the same sum in absolute values: see there.
_GAUSS_ROUNDING = 4.0 * 2.0 ** -52

#: Largest relative asymmetry SiegelPoint.from_matrix accepts.
_SYM_TOL = 1e-12


class SiegelPoint(_Record):
    """Point of H2, stored as the three independent entries of tau.

    tau = [[tau1, tau2], [tau2, tau4]]; symmetry holds by construction and
    Im(tau) must be positive definite.  Each entry must be a number
    (numbers.Complex) and is stored as a Python complex.
    """

    __slots__ = ("tau1", "tau2", "tau4")

    def __init__(self, tau1: complex, tau2: complex, tau4: complex):
        # entries computed inside the package are Python complexes already and
        # skip the numbers.Complex test, which would double the constructor's cost
        if not type(tau1) is type(tau2) is type(tau4) is complex:
            tau1, tau2, tau4 = _sequence((tau1, tau2, tau4), _complex, "SiegelPoint entries must be numbers")
        _check_entries(tau1, tau2, tau4)
        _set(self, "tau1", tau1)
        _set(self, "tau2", tau2)
        _set(self, "tau4", tau4)

    @property
    def matrix(self):
        """tau as a 2x2 complex numpy array."""
        import numpy as np

        return np.array([[self.tau1, self.tau2], [self.tau2, self.tau4]], dtype=complex)

    @property
    def imag(self):
        """Im(tau) as a real 2x2 numpy array."""
        return self.matrix.imag

    @classmethod
    def from_matrix(cls, tau) -> "SiegelPoint":
        """Build from a (numerically) symmetric 2x2 array.

        The off-diagonal entries are averaged; they may differ by at most
        1e-12 max(1, |tau_ij|), which is absolute when all entries are below 1.
        """
        (t1, t12), (t21, t4) = _square_rows(tau, 2, _complex)
        if abs(t12 - t21) > _SYM_TOL * max(1.0, abs(t1), abs(t12), abs(t21), abs(t4)):
            raise InvalidInputError("matrix is not symmetric within tolerance")
        return cls(t1, 0.5 * (t12 + t21), t4)

    def min_imag_eigenvalue(self) -> float:
        """Smallest eigenvalue of Im(tau) (positive on H2).

        Taken as det / lam_max, with det = y1 (y4 - y2^2 / y1), because
        0.5 (tr - disc) cancels to 0 when the eigenvalues are far apart.
        """
        return _least_eigenvalue(self.tau1.imag, self.tau2.imag, self.tau4.imag)


def _least_eigenvalue(y1: float, y2: float, y4: float) -> float:
    """Smallest eigenvalue of [[y1, y2], [y2, y4]]; see SiegelPoint.min_imag_eigenvalue."""
    lam_max = 0.5 * (y1 + y4 + math.hypot(y1 - y4, 2.0 * y2))
    return (y1 / lam_max) * (y4 - y2 * (y2 / y1))


def _positive_definite(y1: float, y2: float, y4: float) -> bool:
    """Leading-minor test of [[y1, y2], [y2, y4]], the second minor divided
    by y1 so that tiny entries do not underflow to 0."""
    return y1 > 0.0 and y4 - y2 * (y2 / y1) > 0.0


def _check_entries(t1: complex, t2: complex, t4: complex) -> None:
    """Raise InvalidInputError unless (t1, t2, t4) are the finite entries of
    a point of H2."""
    # a finite sum has finite terms; a point failing this fast test, or one
    # whose sum overflows, goes on to the checks that name the failure
    s = t1 + t2 + t4
    if s.real - s.real == 0.0 == s.imag - s.imag and _positive_definite(t1.imag, t2.imag, t4.imag):
        return
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in (t1, t2, t4)):
        raise InvalidInputError("SiegelPoint entries must be finite")
    if not _positive_definite(t1.imag, t2.imag, t4.imag):
        raise InvalidInputError("Im(tau) is not positive definite")


def _square_rows(m, n: int, entry=None) -> tuple:
    """The rows of an n x n matrix argument as tuples of entry(x), or of x.
    The one reader of matrices from outside: arrays are read through their
    tolist(), and lengths are checked before iterating, so a generator, a
    scalar or a 3-d array is refused, and so is a set or mapping, as the
    matrix or as a row, whose iteration order is no row order.  Raises
    InvalidInputError, also in place of a TypeError, ValueError or
    OverflowError from len or entry."""
    if hasattr(m, "tolist"):
        m = m.tolist()
    try:
        if len(m) == n and set(map(len, m)) == {n} and _ordered(m):
            return tuple(map(tuple, m)) if entry is None else tuple(tuple(map(entry, row)) for row in m)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"cannot read a {n}x{n} matrix: {exc}") from exc
    raise InvalidInputError(f"expected a {n}x{n} matrix")


#: Matrix and row types _ordered passes without an isinstance test.
_PLAIN = frozenset({tuple, list})


def _ordered(m) -> bool:
    """False iff m or one of its rows is a set or a mapping."""
    return (type(m) in _PLAIN and _PLAIN.issuperset(map(type, m))
            or not any(isinstance(x, (Set, Mapping)) for x in (m, *m)))


def _complex(x) -> complex:
    """x as a Python complex; TypeError unless x is a number, so "1j" is refused."""
    if not isinstance(x, numbers.Complex):
        raise TypeError(f"expected a number, got {x!r}")
    return complex(x)


def _integer_rows(m) -> tuple:
    """The rows of a 4x4 integer matrix as tuples of Python ints.  Entries go
    through _integral, so 2.0 is read as 2 and 1.5 is refused; one of
    magnitude 2^63 or more raises ResourceLimitError (_int64_rows)."""
    rows = _square_rows(m, 4)
    flat = rows[0] + rows[1] + rows[2] + rows[3]
    if set(map(type, flat)) != {int}:
        flat = tuple(map(_integral, flat))
        rows = flat[0:4], flat[4:8], flat[8:12], flat[12:16]
    return _int64_rows(rows)


def _int64_rows(rows) -> tuple:
    """rows, four tuples of Python ints; an entry of magnitude 2^63 or more,
    past the int64 view, raises ResourceLimitError."""
    r0, r1, r2, r3 = rows
    if max(map(abs, r0 + r1 + r2 + r3)) >= 2**63:
        raise ResourceLimitError("a matrix entry of magnitude 2^63 or more is past int64")
    return rows


def _omega(u, v) -> int:
    """The symplectic form u J v^t of two rows, J = [[0, I], [-I, 0]]."""
    return u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]


def _preserves_form(rows) -> bool:
    """M J M^t = J for M given by rows: entry (i, j) of M J M^t is the form
    of rows i and j, which is antisymmetric, so the six pairs i < j decide."""
    r0, r1, r2, r3 = rows
    return (_omega(r0, r1), _omega(r0, r2), _omega(r0, r3),
            _omega(r1, r2), _omega(r1, r3), _omega(r2, r3)) == (0, 1, 0, 0, 1, 0)


def is_symplectic(m) -> bool:
    """Exact integer check of M J M^t = J, which is equivalent to M^t J M = J."""
    return _preserves_form(_integer_rows(m))


def _symplectic_rows(rows) -> tuple:
    """rows, four tuples of Python ints within int64, once they are checked
    to preserve the symplectic form."""
    if not _preserves_form(rows):
        raise InvalidInputError("matrix does not preserve the symplectic form")
    return rows


def _symplectic(rows) -> "SymplecticMatrix":
    """SymplecticMatrix(rows) for rows of Python ints within int64: checked
    by _symplectic_rows, but not read again by _integer_rows."""
    m = object.__new__(SymplecticMatrix)
    _set(m, "rows", _symplectic_rows(rows))
    return m


class SymplecticMatrix(_Record):
    """Element of Sp4(Z) in block form [[A, B], [C, D]], stored exactly as
    four rows of Python ints.  The constructor takes any 4x4 array-like of
    integers, read by _integer_rows and checked by _symplectic_rows, that
    preserves the symplectic form."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        _set(self, "rows", _symplectic_rows(_integer_rows(rows)))

    @property
    def mat(self):
        """A fresh read-only int64 numpy array of the matrix."""
        import numpy as np

        a = np.array(self.rows, dtype=np.int64)
        a.setflags(write=False)
        return a

    @property
    def blocks(self):
        """The four 2x2 integer blocks (A, B, C, D)."""
        m = self.mat
        return m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return _symplectic(_int64_rows(_compose(self.rows, other.rows)))

    def inverse(self) -> "SymplecticMatrix":
        """[[D^t, -B^t], [-C^t, A^t]], the inverse of a symplectic matrix."""
        (a00, a01, b00, b01), (a10, a11, b10, b11), (c00, c01, d00, d01), (c10, c11, d10, d11) = self.rows
        return _symplectic(_int64_rows(((d00, d10, -b00, -b10), (d01, d11, -b01, -b11),
                                        (-c00, -c10, a00, a10), (-c01, -c11, a01, a11))))


J = SymplecticMatrix(((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)))


def is_level2(gamma) -> bool:
    """True iff gamma is congruent to the identity matrix mod 2."""
    rows = gamma.rows if isinstance(gamma, SymplecticMatrix) else _integer_rows(gamma)
    return all(x % 2 == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row))


def _translation_rows(b1: int, b2: int, b4: int):
    """Rows of [[I, B], [0, I]] for B = [[b1, b2], [b2, b4]]."""
    return ((1, 0, b1, b2), (0, 1, b2, b4), (0, 0, 1, 0), (0, 0, 0, 1))


def _gl2_rows(u00: int, u01: int, u10: int, u11: int):
    """Rows of [[U^t, 0], [0, U^-1]] for U = [[u00, u01], [u10, u11]] of det +-1."""
    det = u00 * u11 - u01 * u10
    return ((u00, u10, 0, 0), (u01, u11, 0, 0),
            (0, 0, det * u11, -det * u01), (0, 0, -det * u10, det * u00))


def translation(b) -> SymplecticMatrix:
    """The shift tau -> tau + B for a symmetric integer matrix B."""
    (b1, b2), (b3, b4) = _square_rows(b, 2, _integral)
    if b2 != b3:
        raise InvalidInputError("translation block must be symmetric 2x2 integer")
    return SymplecticMatrix(_translation_rows(b1, b2, b4))


def gl2_embedding(u) -> SymplecticMatrix:
    """Embed U in GL2(Z) as the symplectic matrix acting by tau -> U^t tau U."""
    (u00, u01), (u10, u11) = _square_rows(u, 2, _integral)
    if u00 * u11 - u01 * u10 not in (1, -1):
        raise InvalidInputError("matrix is not in GL2(Z)")
    return SymplecticMatrix(_gl2_rows(u00, u01, u10, u11))


def _act_entries(g, t1: complex, t2: complex, t4: complex) -> tuple[tuple[complex, ...], complex]:
    """(A tau + B)(C tau + D)^-1 at tau = [[t1, t2], [t2, t4]] in closed 2x2 form.

    ``g`` is [[A, B], [C, D]] as four rows of integers.  The image is
    N adj(M) / det(M) with N = A tau + B and M = C tau + D, re-symmetrized;
    returns its entries (tau1, tau2, tau4) and det(M).  Raises
    ConditioningError when |det(M)| < CONDITION_EPS min(1, |m00 m11| + |m01 m10|):
    the test is relative to the two products det(M) is the difference of,
    so a cancellation raises while a small tau, whose products are small
    too, does not.  A failed test is redone on 2^k g with the largest entry
    of M in [1/2, 1), exactly: underflowed products (tau = diag(1e-200 i,
    1e-200 i)) pass and det(M) may be 0; M below 2^-900 is refused.
    """
    (a00, a01, b00, b01), (a10, a11, b10, b11), (c00, c01, d00, d01), (c10, c11, d10, d11) = g
    m00 = c00 * t1 + c01 * t2 + d00
    m01 = c00 * t2 + c01 * t4 + d01
    m10 = c10 * t1 + c11 * t2 + d10
    m11 = c10 * t2 + c11 * t4 + d11
    det = m00 * m11 - m01 * m10
    # min(1, s) spelled out so that the usual case computes no s
    if abs(det) < CONDITION_EPS and abs(det) <= CONDITION_EPS * (abs(m00 * m11) + abs(m01 * m10)):
        k = -math.frexp(max(map(abs, (m00, m01, m10, m11))))[1]
        if k == 0 or k > 900:
            raise ConditioningError(
                f"|det(C tau + D)| = {abs(det):.3e} below {CONDITION_EPS:.1e} relative to its products"
            )
        f = 2.0 ** k
        image, det = _act_entries(tuple(tuple(f * x for x in row) for row in g), t1, t2, t4)
        return image, det / f / f
    n00 = a00 * t1 + a01 * t2 + b00
    n01 = a00 * t2 + a01 * t4 + b01
    n10 = a10 * t1 + a11 * t2 + b10
    n11 = a10 * t2 + a11 * t4 + b11
    return ((n00 * m11 - n01 * m10) / det,
            0.5 * ((n01 * m00 - n00 * m01) / det + (n10 * m11 - n11 * m10) / det),
            (n11 * m00 - n10 * m01) / det), det


def act(gamma, tau) -> SiegelPoint:
    """Apply tau -> (A tau + B)(C tau + D)^-1 and re-symmetrize the result.

    A tau given as an array goes through SiegelPoint.from_matrix.  Raises
    ConditioningError when |det(C tau + D)| < CONDITION_EPS times
    min(1, |m00 m11| + |m01 m10|) for M = C tau + D, or det(C tau + D) = 0.
    """
    g = gamma if isinstance(gamma, SymplecticMatrix) else SymplecticMatrix(gamma)
    p = tau if isinstance(tau, SiegelPoint) else SiegelPoint.from_matrix(tau)
    return SiegelPoint(*_act_entries(g.rows, p.tau1, p.tau2, p.tau4)[0])


@lru_cache(maxsize=1)
def gottschling_matrices() -> tuple[SymplecticMatrix, ...]:
    """The nineteen symplectic matrices whose cocycle determinants cut out
    the boundary of the degree-2 fundamental domain.

    Their det(C tau + D) values are, in order: det(tau + S) for the nine
    diagonal S with entries in {-1,0,1}; det(tau + S) for the two
    off-diagonal S = [[0,e],[e,0]]; tau1; tau4; and tau1 + 2e tau2 + tau4 + d
    for e = +-1, d in {0,1,-1}.
    """
    # [[0, -I], [I, S]]: det(C tau + D) = det(tau + S).
    shifts = [(d1, 0, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)] + [(0, e, 0) for e in (1, -1)]
    rows = [((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, s1, s2), (0, 1, s2, s4)) for s1, s2, s4 in shifts]
    # Act as SL2 on the tau1 (resp. tau4) corner: det = tau1 (resp. tau4).
    rows.append(((0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)))
    rows.append(((1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0)))
    # Rank-one C = [[1,e],[e,1]] family: det = tau1 + 2e tau2 + tau4 + d.
    for e in (1, -1):
        base = ((1, 0, -1, 0), (0, 1, 0, 0), (1, e, 0, 0), (e, 1, -e, 1))
        rows += [base, _compose(base, _translation_rows(0, e, -1)), _compose(base, _translation_rows(0, 0, -1))]
    assert len(rows) == 19
    return tuple(map(SymplecticMatrix, rows))


def _gottschling_scan(t1: complex, t2: complex, t4: complex) -> tuple[complex, ...]:
    """The nineteen det(C tau + D) at tau, in the order of gottschling_matrices().

    Each is det C det(tau) + p1 tau1 + p2 tau2 + p4 tau4 + det D, summed in
    that order with the zero terms dropped and the partial sums
    det(tau) +- tau1 and tau1 +- 2 tau2 + tau4 shared.  Adding a zero term
    or multiplying by +-1 or 2 is exact, so every value has the magnitude of
    the full sum.
    """
    det = t1 * t4 - t2 * t2
    dm, dp, w = det - t1, det + t1, t2 + t2
    sp, sm = t1 + w + t4, t1 - w + t4
    return (dm - t4 + 1, det - t4, dp - t4 - 1, dm, det, dp, dm + t4 - 1, det + t4, dp + t4 + 1,
            det - w - 1, det + w - 1, t1, t4, sp, sp + 1, sp - 1, sm, sm + 1, sm - 1)


class ReductionResult(_Record):
    """Outcome of a fundamental-domain reduction of tau: with transform =
    [[A, B], [C, D]], reduced = act(transform, tau) bit for bit and
    cocycle = det(C tau + D), both from one _act_entries at tau."""

    __slots__ = ("reduced", "transform", "iterations", "cocycle")


def _minkowski_gl2(y1: float, y2: float, y4: float) -> tuple[int, int, int, int]:
    """Entries (u00, u01, u10, u11) of U in GL2(Z) with G = U^t Y U satisfying
    0 <= 2 G12 <= G11 <= G22, by Gauss reduction of a positive definite
    Y = [[y1, y2], [y2, y4]].

    The Gram entries are G11 = p00 u00 + p01 u10, G12 = p00 u01 + p01 u11
    and G22 = p10 u01 + p11 u11, with (p00, p01) = u00 (y1, y2) + u10 (y2, y4)
    and (p10, p11) = u01 (y1, y2) + u11 (y2, y4), each summed in that order;
    a swap exchanges G11 and G22 and a reduction step keeps G11, exactly.
    A swap lowers G11.  A reduction step keeps G11 and lowers |G12|, and in
    exact arithmetic G22 too.  A swap gives the new G11 the bits of the old
    G22 and a reduction step keeps the bits of G11, so every step strictly
    lowers (G11, |G12|) in lexicographic order, G11 stays positive, and the
    loop cannot cycle.  A step that would not lower |G12|, or would leave
    G22 non-positive, is decided by rounding in U^t Y U and is not taken.
    If then 2 |G12| <= (1 + _TOL) G11, G is reduced up to rounding and the
    loop ends; otherwise the rounding in G12 exceeds _TOL G11 / 2, as on a
    form with a condition number of about 1/eps or more, and
    ConditioningError is raised.

    Each Gram entry takes four roundings, so the float G11 and G12 lie
    within 2 eps |u1|^t |Y| |u1| and 2 eps |u1|^t |Y| |u2| of the exact
    entries at the final U, with eps = 2^-52, |.| entrywise and u1, u2 the
    columns of U.  Where G11 is not above twice their sum,
    _GAUSS_ROUNDING |u1|^t |Y| (|u1| + |u2|), rounding alone decided the
    loop, whose U can then be far from reduced (2 |G12| > 30 G11 exactly, on
    sheared forms), and ConditioningError is raised too.

    A form with 0 <= y2, y1 <= y4 and round(y2 / y1) = 0 is one on which
    the loop takes no step, and it returns the identity at once.
    """
    if 0.0 <= y2 and y1 <= y4 and round(y2 / y1) == 0:
        return 1, 0, 0, 1
    # the entries of the identity, up to the sign of a zero y2, which no decision reads
    u00, u01, u10, u11 = 1, 0, 0, 1
    p00, p01, p10, p11 = y1, y2, y2, y4
    g11, g12, g22 = y1, y2, y4
    while True:
        if g11 > g22:
            u00, u01, u10, u11 = u01, u00, u11, u10
            p00, p01, p10, p11 = p10, p11, p00, p01
            g11, g12, g22 = g22, p00 * u01 + p01 * u11, g11
            continue
        r = round(g12 / g11)
        if r == 0:
            break
        v01, v11 = u01 - r * u00, u11 - r * u10
        q10, q11 = v01 * y1 + v11 * y2, v01 * y2 + v11 * y4
        h12, h22 = p00 * v01 + p01 * v11, q10 * v01 + q11 * v11
        if not (0.0 < h22 and abs(h12) < abs(g12)):
            if 2.0 * abs(g12) <= (1.0 + _TOL) * g11:
                break
            raise ConditioningError(
                f"Gauss reduction of Im(tau) lost precision: a step by {r} takes G22 = {g22:.3e} "
                f"to {h22:.3e} and |G12| = {abs(g12):.3e} to {abs(h12):.3e}, with G11 = {g11:.3e}"
            )
        u01, u11, p10, p11, g12, g22 = v01, v11, q10, q11, h12, h22
    c0, c1 = abs(u00), abs(u10)
    d0, d1 = c0 + abs(u01), c1 + abs(u11)
    bound = _GAUSS_ROUNDING * (c0 * (y1 * d0 + abs(y2) * d1) + c1 * (abs(y2) * d0 + y4 * d1))
    if not g11 > bound:
        raise ConditioningError(
            f"Gauss reduction of Im(tau) lost precision: G11 = {g11:.3e} is not above "
            f"the rounding bound {bound:.3e} of G11 and G12"
        )
    if g12 < 0.0:
        u01, u11 = -u01, -u11
    return u00, u01, u10, u11


def _compose(a, b):
    """Exact integer product a @ b of two 4x4 matrices given as tuples of
    rows; its callers refuse a result past int64."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    return tuple((r0 * b00 + r1 * b10 + r2 * b20 + r3 * b30, r0 * b01 + r1 * b11 + r2 * b21 + r3 * b31,
                  r0 * b02 + r1 * b12 + r2 * b22 + r3 * b32, r0 * b03 + r1 * b13 + r2 * b23 + r3 * b33)
                 for r0, r1, r2, r3 in a)


#: (s1, s2, s4) of the eleven inversions [[0, -I], [I, S]], S = [[s1, s2], [s2, s4]],
#: read off the bottom rows of the first eleven gottschling_matrices().
_SHIFTS = tuple((g.rows[2][2], g.rows[2][3], g.rows[3][3]) for g in gottschling_matrices()[:11])


def _gottschling_step(k: int, t1: complex, t2: complex, t4: complex, rows):
    """Gottschling matrix g = gottschling_matrices()[k] applied to tau and
    to the witness: the image entries and the rows of g @ rows, as
    _act_entries(g, t1, t2, t4) and _compose(g, rows) give them, up to the
    sign of an exact zero.

    Matrices 0-10, [[0, -I], [I, S]], are the shift by S = _SHIFTS[k],
    a = tau + S, then tau -> -tau^-1 = (-a4, a2, -a1) / det a.  Matrix 11
    acts as tau1 -> -1/tau1 on the tau1 corner and matrix 12 as
    tau4 -> -1/tau4 on the tau4 corner.  Each writes its image in the order
    of operations of _act_entries, so the floats agree, and its witness
    rows are permuted, negated or shifted rows of the old ones.  For the
    rank-one matrices 13-18, and for an inversion with |det(C tau + D)|
    below CONDITION_EPS, the step is _act_entries and _compose, which raise
    or rescale.  A corner needs no such test: its det(C tau + D) is tau1
    (tau4) itself, a single product that cannot cancel, on which
    _act_entries neither raises nor rescales.
    """
    (x0, x1, x2, x3), r1, (z0, z1, z2, z3), r3 = rows
    if k < 11:
        s1, s2, s4 = _SHIFTS[k]
        a1, a2, a4 = t1 + s1, t2 + s2, t4 + s4
        det = a1 * a4 - a2 * a2
        if abs(det) >= CONDITION_EPS:
            w0, w1, w2, w3 = r3
            y0, y1, y2, y3 = r1
            x = a2 / det
            return (-a4 / det, 0.5 * (x + x), -a1 / det), (
                (-z0, -z1, -z2, -z3), (-w0, -w1, -w2, -w3),
                (x0 + s1 * z0 + s2 * w0, x1 + s1 * z1 + s2 * w1, x2 + s1 * z2 + s2 * w2, x3 + s1 * z3 + s2 * w3),
                (y0 + s2 * z0 + s4 * w0, y1 + s2 * z1 + s4 * w1, y2 + s2 * z2 + s4 * w2, y3 + s2 * z3 + s4 * w3))
    elif k == 11:
        x = t2 / t1
        return (-1 / t1, 0.5 * (x + x), (t4 * t1 - t2 * t2) / t1), ((-z0, -z1, -z2, -z3), r1, rows[0], r3)
    elif k == 12:
        x = t2 / t4
        w0, w1, w2, w3 = r3
        return ((t1 * t4 - t2 * t2) / t4, 0.5 * (x + x), -1 / t4), (rows[0], (-w0, -w1, -w2, -w3), rows[2], r1)
    g = gottschling_matrices()[k].rows
    return _act_entries(g, t1, t2, t4)[0], _compose(g, rows)


def _certificate(y1: float, y2: float, y4: float) -> bool:
    """True when Im(tau) = [[y1, y2], [y2, y4]] alone shows that no
    Gottschling determinant of a tau with |Re(tau)| <= 1/2 entrywise lies
    below 1 - _TOL; see reduce_to_fundamental_domain."""
    return 1.0 <= y1 and 2.0 * abs(y2) <= y1 <= y4 and 1.0 <= y1 * y4 - y2 * y2


def reduce_to_fundamental_domain(tau: SiegelPoint) -> ReductionResult:
    """Move tau into the fundamental domain of Sp4(Z) acting on H2.

    The loop alternates three steps until none of them fires:

    1. Minkowski-reduce Im(tau) by a GL2(Z) congruence,
    2. translate Re(tau) into [-1/2, 1/2] entrywise,
    3. apply a Gottschling matrix whenever its |det(C tau + D)| < 1 - _TOL (1e-9)
       (the first of the smallest, in the order of gottschling_matrices()).

    Step 3 strictly increases det Im(tau), which bounds the number of passes.
    The loop runs on the three entries of tau and on the witness as exact
    integer rows, each step with only the arithmetic its matrix needs, and
    gives the floats of the generic action _act_entries up to the sign of an
    exact zero, which no decision of the loop reads.

    - A translation [[I, B], [0, I]] has det(C tau + D) = 1, so it adds B
      exactly and changes the top two witness rows only.
    - A GL2 step (C = 0, D = U^-1) forms U^t tau U from the generic
      products, whose division by det U = +-1 is exact while products of
      two entries of U stay below 2^53, and takes witness rows 0-1 by U^t
      and rows 2-3 by U^-1, each entry written out.  _minkowski_gl2
      returns the identity at once where its loop would take no step.
    - The scan keeps the order of summation of the nineteen determinants,
      so it picks the same index.  A Gottschling step is one of
      _gottschling_step's closed forms: the eleven inversions
      [[0, -I], [I, S]] and the two corner inversions, each with its
      witness rows permuted, negated or shifted.  The six rank-one
      matrices, and an inversion whose |det(C tau + D)| < CONDITION_EPS,
      take the generic action and product, which checks conditioning
      (ConditioningError).
    - The scan is skipped when _certificate holds: 1 <= y1,
      2 |y2| <= y1 <= y4 and det Y >= 1 for Y = Im(tau) after step 2.  No
      step could fire there.  For real symmetric X,
      det(X + iY) = det Y det(Z + iI) with Z = Y^-1/2 X Y^-1/2 symmetric,
      and |det(Z + iI)| = prod |z_j + i| >= 1 over its eigenvalues z_j, so
      the eleven |det(tau + S)| are at least det Y; |tau1| >= y1 and
      |tau4| >= y4 >= y1; and |tau1 +- 2 tau2 + tau4 + d| >= y1 + y4 - 2|y2|
      >= y4.  Rounding cannot undo this.  4 y2^2 <= y1 y4 gives
      det Y >= 3/4 y1 y4, so the float det Y is within 3 ulps of the exact
      one, which is then at least 1 - 4 eps.  With |Re| <= 1/2 (the
      translation is exact) and y1 >= 1, every term the scan sums is at
      most |tau1 tau4| <= 5/4 y1 y4, |tau2|^2 <= 1/2 y1 y4 or
      |tau1| + |tau4| + 1 <= 7/2 y1 y4 for a determinant, and at most
      |tau1| + 2|tau2| + |tau4| + 1 <= 6 y4 for the last six, so each value
      read is within about 100 ulps, relative, of the exact one: at least
      1 - 1e-13, far above 1 - _TOL.

    The GL2 and Gottschling steps check that the iterate lies in H2.  The
    Gauss reduction behind step 1 raises ConditioningError when rounding,
    not the form, decides a step, or its U.  At the end of each pass that
    changed the witness, the max and the min of its concatenated rows must
    lie strictly within +-2^63, as _int64_rows asks, so a witness that
    outgrows int64, by a step of any of the three kinds, is refused within
    that pass.  The pass that settles changes nothing, so on return the
    witness is only checked to be symplectic (_symplectic), without reading
    it again as a matrix argument, and the image by _check_entries, before
    the records are set without their constructors' type tests.
    Returns the witness T, the passes used, and act(T, tau) with its cocycle
    det(C tau + D) from one _act_entries at tau, not the last iterate, which
    drifts from it on ill-conditioned points.  Raises NonConvergenceError if
    1000 passes do not settle, and ResourceLimitError if the witness
    transform would outgrow int64.  The loop is _reduce, which
    theta_fourth_vector's route calls without building these records.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    rows, passes = _reduce(tau.tau1, tau.tau2, tau.tau4)
    transform = _symplectic(rows)
    (t1, t2, t4), cocycle = _act_entries(rows, tau.tau1, tau.tau2, tau.tau4)
    _check_entries(t1, t2, t4)
    # the records of complexes and ints made here, set without the constructors' type tests
    reduced, res = object.__new__(SiegelPoint), object.__new__(ReductionResult)
    _set(reduced, "tau1", t1)
    _set(reduced, "tau2", t2)
    _set(reduced, "tau4", t4)
    _set(res, "reduced", reduced)
    _set(res, "transform", transform)
    _set(res, "iterations", passes)
    _set(res, "cocycle", cocycle)
    return res


def _reduce(t1: complex, t2: complex, t4: complex) -> tuple[tuple, int]:
    """The loop of reduce_to_fundamental_domain at the point of H2 with
    entries (t1, t2, t4): the witness rows, Python ints within int64 not yet
    checked to be symplectic, and the passes used.  Raises as that does.

    Every step writes out its witness update entry by entry, and the int64
    guard tests max(w) >= 2^63 and min(w) <= -2^63 on w = r0 + r1 + r2 + r3,
    with _int64_rows's refusal and message."""
    r0, r1, r2, r3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    for iterations in range(1, _MAX_ITER + 1):
        changed = False

        u00, u01, u10, u11 = u = _minkowski_gl2(t1.imag, t2.imag, t4.imag)
        if u != (1, 0, 0, 1):
            # N = U^t tau; with M = D = U^-1 the image N M^-1 is N U
            n00, n01 = u00 * t1 + u10 * t2, u00 * t2 + u10 * t4
            n10, n11 = u01 * t1 + u11 * t2, u01 * t2 + u11 * t4
            t1, t2, t4 = (n00 * u00 + n01 * u10, 0.5 * ((n01 * u11 + n00 * u01) + (n10 * u00 + n11 * u10)),
                          n11 * u11 + n10 * u01)
            _check_entries(t1, t2, t4)
            # rows 0-1 by U^t, rows 2-3 by U^-1 = det U [[u11, -u01], [-u10, u00]]
            (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3), (w0, w1, w2, w3) = r0, r1, r2, r3
            e = u00 * u11 - u01 * u10
            v00, v01, v10, v11 = e * u11, -e * u01, -e * u10, e * u00
            r0 = u00 * x0 + u10 * y0, u00 * x1 + u10 * y1, u00 * x2 + u10 * y2, u00 * x3 + u10 * y3
            r1 = u01 * x0 + u11 * y0, u01 * x1 + u11 * y1, u01 * x2 + u11 * y2, u01 * x3 + u11 * y3
            r2 = v00 * z0 + v01 * w0, v00 * z1 + v01 * w1, v00 * z2 + v01 * w2, v00 * z3 + v01 * w3
            r3 = v10 * z0 + v11 * w0, v10 * z1 + v11 * w1, v10 * z2 + v11 * w2, v10 * z3 + v11 * w3
            changed = True

        b1, b2, b4 = -round(t1.real), -round(t2.real), -round(t4.real)
        if b1 or b2 or b4:
            t1, t2, t4 = t1 + b1, t2 + b2, t4 + b4
            # rows 0-1 gain B times rows 2-3
            (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3), (w0, w1, w2, w3) = r0, r1, r2, r3
            r0 = x0 + b1 * z0 + b2 * w0, x1 + b1 * z1 + b2 * w1, x2 + b1 * z2 + b2 * w2, x3 + b1 * z3 + b2 * w3
            r1 = y0 + b2 * z0 + b4 * w0, y1 + b2 * z1 + b4 * w1, y2 + b2 * z2 + b4 * w2, y3 + b2 * z3 + b4 * w3
            changed = True

        if not _certificate(t1.imag, t2.imag, t4.imag):
            vals = list(map(abs, _gottschling_scan(t1, t2, t4)))
            low = min(vals)
            if low < 1.0 - _TOL:
                (t1, t2, t4), (r0, r1, r2, r3) = _gottschling_step(vals.index(low), t1, t2, t4, (r0, r1, r2, r3))
                _check_entries(t1, t2, t4)
                changed = True

        if not changed:
            return (r0, r1, r2, r3), iterations
        # the refusal of _int64_rows, on one concatenation of the rows
        w = r0 + r1 + r2 + r3
        if max(w) >= 2**63 or min(w) <= -2**63:
            raise ResourceLimitError("a matrix entry of magnitude 2^63 or more is past int64")

    raise NonConvergenceError(f"reduction did not settle in {_MAX_ITER} passes")


def in_tube(reduced_tau: SiegelPoint, t) -> bool:
    """Membership of a fundamental-domain representative in the cusp tube.

    ``reduced_tau`` must already be reduced (the tube is defined inside the
    fundamental domain); membership is Im(tau4) >= t.
    """
    return reduced_tau.tau4.imag >= _real(t, MIN_TUBE_PARAMETER, math.inf, _TUBE)
