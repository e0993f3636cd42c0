"""Degree-2 Siegel upper half-space and the integral symplectic group.

The half-space H2 consists of symmetric complex 2x2 matrices with positive
definite imaginary part.  Sp4(Z) acts on it by fractional linear
transformations tau -> (A tau + B)(C tau + D)^-1, and every orbit meets the
classical fundamental domain cut out by Minkowski reduction of Im(tau),
bounded real parts, and the nineteen Gottschling determinant conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConditioningError, InvalidInputError, NonConvergenceError, ResourceLimitError

__all__ = [
    "SiegelPoint",
    "SymplecticMatrix",
    "ReductionResult",
    "J",
    "is_in_H2",
    "is_symplectic",
    "is_level2",
    "act",
    "translation",
    "gl2_embedding",
    "gottschling_matrices",
    "reduce_to_fundamental_domain",
]

#: Default tolerance of the reduction loop.
DEFAULT_TOL = 1e-9

#: |det(C tau + D)| below this raises ConditioningError in act().
CONDITION_EPS = 1e-12

_MAX_ITER = 1000

#: Largest relative asymmetry SiegelPoint.from_matrix accepts.
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class SiegelPoint:
    """Point of H2, stored as the three independent entries of tau.

    tau = [[tau1, tau2], [tau2, tau4]]; symmetry holds by construction and
    Im(tau) must be positive definite.
    """

    tau1: complex
    tau2: complex
    tau4: complex

    def __post_init__(self):
        entries = (self.tau1, self.tau2, self.tau4)
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in map(complex, entries)):
            raise InvalidInputError("SiegelPoint entries must be finite")
        y1 = complex(self.tau1).imag
        y2 = complex(self.tau2).imag
        y4 = complex(self.tau4).imag
        if not (y1 > 0.0 and y1 * y4 - y2 * y2 > 0.0):
            raise InvalidInputError("Im(tau) is not positive definite")

    @property
    def matrix(self) -> np.ndarray:
        """tau as a 2x2 complex array."""
        return np.array([[self.tau1, self.tau2], [self.tau2, self.tau4]], dtype=complex)

    @property
    def imag(self) -> np.ndarray:
        """Im(tau) as a real 2x2 array."""
        return self.matrix.imag

    @classmethod
    def from_matrix(cls, tau) -> "SiegelPoint":
        """Build from a (numerically) symmetric 2x2 array.

        The off-diagonal entries are averaged; they may differ by at most
        1e-12 relative to the largest entry.
        """
        m = np.asarray(tau, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidInputError(f"expected a 2x2 matrix, got shape {m.shape}")
        scale = max(1.0, np.max(np.abs(m)))
        if abs(m[0, 1] - m[1, 0]) > _SYM_TOL * scale:
            raise InvalidInputError("matrix is not symmetric within tolerance")
        off = 0.5 * (m[0, 1] + m[1, 0])
        return cls(complex(m[0, 0]), complex(off), complex(m[1, 1]))

    def min_imag_eigenvalue(self) -> float:
        """Smallest eigenvalue of Im(tau) (positive on H2)."""
        y = self.imag
        tr = y[0, 0] + y[1, 1]
        disc = math.hypot(y[0, 0] - y[1, 1], 2.0 * y[0, 1])
        return 0.5 * (tr - disc)


def is_in_H2(tau) -> bool:
    """True iff tau is symmetric with positive definite imaginary part.

    Positive definiteness is checked through the leading minors of Im(tau).
    Raises InvalidInputError on non-finite entries.
    """
    m = np.asarray(tau, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix entries must be finite")
    if m[0, 1] != m[1, 0]:
        return False
    y = m.imag
    return y[0, 0] > 0.0 and y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0] > 0.0


_J_BLOCKS = np.block(
    [[np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)],
     [-np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)]]
)


def is_symplectic(m) -> bool:
    """Exact integer check of M^t J M = J."""
    a = np.asarray(m)
    if a.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        ai = np.rint(np.asarray(a, dtype=float)).astype(np.int64)
        if not np.array_equal(ai, np.asarray(a, dtype=float)):
            raise InvalidInputError("matrix entries must be integers")
        a = ai
    a = a.astype(np.int64)
    return np.array_equal(a.T @ _J_BLOCKS @ a, _J_BLOCKS)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Element of Sp4(Z) in block form [[A, B], [C, D]]."""

    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=np.int64)
        object.__setattr__(self, "mat", a)
        a.setflags(write=False)
        if not is_symplectic(a):
            raise InvalidInputError("matrix does not preserve the symplectic form")

    @property
    def blocks(self):
        """The four 2x2 integer blocks (A, B, C, D)."""
        m = self.mat
        return m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        # Each product entry is a sum of four products, so this bound keeps
        # the int64 product exact; past it numpy would wrap silently.
        bound = 4 * int(np.abs(self.mat).max()) * int(np.abs(other.mat).max())
        if bound >= 2**63:
            raise ResourceLimitError(f"product entries may reach {bound:.3e}, past int64")
        return SymplecticMatrix(self.mat @ other.mat)

    def inverse(self) -> "SymplecticMatrix":
        # M^-1 = J^-1 M^t J, exactly in integers.
        return SymplecticMatrix(-_J_BLOCKS @ self.mat.T @ _J_BLOCKS)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash(self.mat.tobytes())


J = SymplecticMatrix(_J_BLOCKS)
IDENTITY = SymplecticMatrix(np.eye(4, dtype=np.int64))


def is_level2(gamma) -> bool:
    """True iff gamma is congruent to the identity matrix mod 2."""
    m = gamma.mat if isinstance(gamma, SymplecticMatrix) else np.asarray(gamma, dtype=np.int64)
    return bool(np.all((m - np.eye(4, dtype=np.int64)) % 2 == 0))


def translation(b) -> SymplecticMatrix:
    """The shift tau -> tau + B for a symmetric integer matrix B."""
    bm = np.asarray(b, dtype=np.int64)
    if bm.shape != (2, 2) or bm[0, 1] != bm[1, 0]:
        raise InvalidInputError("translation block must be symmetric 2x2 integer")
    m = np.eye(4, dtype=np.int64)
    m[:2, 2:] = bm
    return SymplecticMatrix(m)


def gl2_embedding(u) -> SymplecticMatrix:
    """Embed U in GL2(Z) as the symplectic matrix acting by tau -> U^t tau U."""
    um = np.asarray(u, dtype=np.int64)
    det = um[0, 0] * um[1, 1] - um[0, 1] * um[1, 0]
    if det not in (1, -1):
        raise InvalidInputError("matrix is not in GL2(Z)")
    inv = det * np.array([[um[1, 1], -um[0, 1]], [-um[1, 0], um[0, 0]]], dtype=np.int64)
    m = np.zeros((4, 4), dtype=np.int64)
    m[:2, :2] = um.T
    m[2:, 2:] = inv
    return SymplecticMatrix(m)


def _det2(m):
    """Determinant of a 2x2 matrix, or of each 2x2 matrix in a stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def act(gamma, tau) -> SiegelPoint:
    """Apply tau -> (A tau + B)(C tau + D)^-1 and re-symmetrize the result.

    Raises ConditioningError when |det(C tau + D)| < CONDITION_EPS.
    """
    g = gamma if isinstance(gamma, SymplecticMatrix) else SymplecticMatrix(np.asarray(gamma))
    t = tau.matrix if isinstance(tau, SiegelPoint) else np.asarray(tau, dtype=complex)
    a, b, c, d = g.blocks
    den = c @ t + d
    det = _det2(den)
    if abs(det) < CONDITION_EPS:
        raise ConditioningError(f"|det(C tau + D)| = {abs(det):.3e} below {CONDITION_EPS:.1e}")
    num = a @ t + b
    # num @ den^-1 via a solve on the transposed system.
    res = np.linalg.solve(den.T, num.T).T
    res = 0.5 * (res + res.T)
    return SiegelPoint(complex(res[0, 0]), complex(res[0, 1]), complex(res[1, 1]))


@lru_cache(maxsize=1)
def gottschling_matrices() -> tuple[SymplecticMatrix, ...]:
    """The nineteen symplectic matrices whose cocycle determinants cut out
    the boundary of the degree-2 fundamental domain.

    Their det(C tau + D) values are, in order: det(tau + S) for the nine
    diagonal S with entries in {-1,0,1}; det(tau + S) for the two
    off-diagonal S = [[0,e],[e,0]]; tau1; tau4; and tau1 + 2e tau2 + tau4 + d
    for e = +-1, d in {0,1,-1}.
    """
    mats: list[SymplecticMatrix] = []

    def inv_block(s):
        m = np.zeros((4, 4), dtype=np.int64)
        m[:2, 2:] = -np.eye(2, dtype=np.int64)
        m[2:, :2] = np.eye(2, dtype=np.int64)
        m[2:, 2:] = np.asarray(s, dtype=np.int64)
        return SymplecticMatrix(m)

    for d1 in (-1, 0, 1):
        for d2 in (-1, 0, 1):
            mats.append(inv_block([[d1, 0], [0, d2]]))
    for e in (1, -1):
        mats.append(inv_block([[0, e], [e, 0]]))

    # Act as SL2 on the tau1 (resp. tau4) corner: det = tau1 (resp. tau4).
    m1 = np.zeros((4, 4), dtype=np.int64)
    m1[:2, :2] = np.diag([0, 1])
    m1[:2, 2:] = np.diag([-1, 0])
    m1[2:, :2] = np.diag([1, 0])
    m1[2:, 2:] = np.diag([0, 1])
    mats.append(SymplecticMatrix(m1))

    m4 = np.zeros((4, 4), dtype=np.int64)
    m4[:2, :2] = np.diag([1, 0])
    m4[:2, 2:] = np.diag([0, -1])
    m4[2:, :2] = np.diag([0, 1])
    m4[2:, 2:] = np.diag([1, 0])
    mats.append(SymplecticMatrix(m4))

    # Rank-one C = [[1,e],[e,1]] family: det = tau1 + 2e tau2 + tau4 + d.
    for e in (1, -1):
        base = np.zeros((4, 4), dtype=np.int64)
        base[:2, :2] = np.eye(2, dtype=np.int64)
        base[:2, 2:] = np.array([[-1, 0], [0, 0]])
        base[2:, :2] = np.array([[1, e], [e, 1]])
        base[2:, 2:] = np.array([[0, 0], [-e, 1]])
        g0 = SymplecticMatrix(base)
        mats.append(g0)
        mats.append(g0 @ translation([[0, e], [e, -1]]))
        mats.append(g0 @ translation([[0, 0], [0, -1]]))

    assert len(mats) == 19
    return tuple(mats)


@lru_cache(maxsize=1)
def _gottschling_blocks() -> tuple[np.ndarray, np.ndarray]:
    """The C and D blocks of :func:`gottschling_matrices`, stacked (19, 2, 2)."""
    mats = gottschling_matrices()
    return np.stack([g.blocks[2] for g in mats]), np.stack([g.blocks[3] for g in mats])


def _gottschling_dets(t: np.ndarray) -> np.ndarray:
    """The nineteen det(C tau + D) at tau, in the order of gottschling_matrices()."""
    c, d = _gottschling_blocks()
    return _det2(c @ t + d)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a fundamental-domain reduction: act(transform, original) = reduced."""

    reduced: SiegelPoint
    transform: SymplecticMatrix
    iterations: int


def _minkowski_gl2(y: np.ndarray) -> np.ndarray:
    """U in GL2(Z) with U^t Y U satisfying 0 <= 2 Y12 <= Y11 <= Y22."""
    u = np.eye(2, dtype=np.int64)
    for _ in range(256):
        g = u.T @ y @ u
        if g[0, 0] > g[1, 1]:
            u = u @ np.array([[0, 1], [1, 0]], dtype=np.int64)
            continue
        r = round(g[0, 1] / g[0, 0])
        if r != 0:
            u = u @ np.array([[1, -r], [0, 1]], dtype=np.int64)
            continue
        break
    else:  # pragma: no cover - Gauss reduction of a 2x2 form always exits
        raise NonConvergenceError("Minkowski reduction did not settle")
    if (u.T @ y @ u)[0, 1] < 0.0:
        u = u @ np.diag([1, -1]).astype(np.int64)
    return u


def reduce_to_fundamental_domain(tau: SiegelPoint, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Move tau into the fundamental domain of Sp4(Z) acting on H2.

    The loop alternates three steps until none of them fires:

    1. Minkowski-reduce Im(tau) by a GL2(Z) congruence,
    2. translate Re(tau) into [-1/2, 1/2] entrywise,
    3. apply a Gottschling matrix whenever its |det(C tau + D)| < 1 - tol.

    Step 3 strictly increases det Im(tau), which bounds the number of passes.
    Returns the reduced point together with the witness transform and the
    number of passes used; raises NonConvergenceError (carrying the best
    iterate) if 1000 passes do not settle, and ResourceLimitError if the
    witness transform would outgrow int64.
    """
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")

    cur = tau
    total = IDENTITY
    iterations = 0
    for _ in range(_MAX_ITER):
        iterations += 1
        changed = False

        u = _minkowski_gl2(cur.imag)
        if not np.array_equal(u, np.eye(2, dtype=np.int64)):
            g = gl2_embedding(u)
            cur = act(g, cur)
            total = g @ total
            changed = True

        x = cur.matrix.real
        b = -np.rint(x).astype(np.int64)
        b[1, 0] = b[0, 1]
        if np.any(b != 0):
            g = translation(b)
            cur = act(g, cur)
            total = g @ total
            changed = True

        vals = np.abs(_gottschling_dets(cur.matrix))
        k = int(np.argmin(vals))
        if vals[k] < 1.0 - tol:
            g = gottschling_matrices()[k]
            cur = act(g, cur)
            total = g @ total
            changed = True

        if not changed:
            return ReductionResult(cur, total, iterations)

    raise NonConvergenceError(
        f"reduction did not settle in {_MAX_ITER} passes",
        best=ReductionResult(cur, total, iterations),
    )
