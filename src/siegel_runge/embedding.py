"""The ten-theta projective embedding of the level-2 Siegel threefold.

psi sends tau to the point of P^9 with coordinates Theta_m(tau)^4 over the
ten even characteristics.  The image of a point depends only on its level-2
orbit; the full integral symplectic group permutes the coordinates up to a
common factor.  Exactly one coordinate vanishes on the locus parametrizing
products of elliptic curves, and more coordinates decay together as the
fundamental-domain representative escapes toward the cusps, which is what
the tube test Im(tau4) >= t of :func:`~siegel_runge.halfspace.in_tube`
delimits.  The archimedean height estimate reads the sup-norm a
ProjectivePoint carries, so it lives here rather than with the exact
heights of :mod:`~siegel_runge.heights`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _TINY, InconsistencyError, InvalidInputError, _integral, _real, _Record, _sequence, _set
from .halfspace import SiegelPoint, in_tube, reduce_to_fundamental_domain
from .theta import DEFAULT_TOL_FOURTH, _fourth_vector


#: Relative cutoff used when deciding whether a coordinate is "near zero".
DEFAULT_REL_TOL = 1e-6

#: Reduced points with Im(tau4) past this are treated as too close to the
#: cusps for vanishing-pattern classification.
DEFAULT_TUBE_CUTOFF = 2.0

_RANK_CUTOFF = 1e-6


class ProjectivePoint(_Record):
    """Point of P^9 given by 10 finite complex coordinates, not all tiny.

    ``coords`` is a read-only complex copy of the coordinates given;
    ``tol`` records the absolute evaluation tolerance the coordinates carry,
    finite and positive; ``sup`` is max|coords|, computed once here, and
    left out of equality and repr; a non-finite one is refused.  The moduli
    that give ``sup`` are kept, outside the fields, for
    :func:`near_zero_coordinates`.  Two points are equal when their tol and
    their coordinates, compared as arrays, are; a point is not hashable.
    """

    __slots__ = ("coords", "tol", "sup", "_moduli")
    _fields = ("coords", "tol")

    def __init__(self, coords: np.ndarray, tol: float):
        _fill(self, _numbers(coords, "expected 10 coordinates", (10,), copy=True),
              _real(tol, _TINY, math.inf, "tol must be finite and positive"))

    @classmethod
    def _trusted(cls, coords: np.ndarray, tol: float) -> ProjectivePoint:
        """The point of a complex array of shape (10,) that the library made and
        hands over, uncopied, and of a tol already read: only the checks on values run."""
        point = object.__new__(cls)
        _fill(point, coords, tol)
        return point

    def __eq__(self, other):
        # the tuple of fields has no truth value once the arrays are two
        if other.__class__ is self.__class__:
            return self.tol == other.tol and np.array_equal(self.coords, other.coords)
        return NotImplemented

    __hash__ = None

    def normalized(self) -> np.ndarray:
        """Coordinates scaled to unit sup-norm."""
        return self.coords / self.sup


def _fill(point: ProjectivePoint, c: np.ndarray, tol: float) -> None:
    """Set the fields of a ProjectivePoint from a complex array of shape (10,),
    made read-only here, and a tol in (0, inf), once the values pass their checks."""
    # numpy's moduli, which Python's abs of a complex can miss by an ulp;
    # a plain max skips a nan that is not first, the sum of them does not
    moduli = np.abs(c).tolist()
    sup = max(moduli)
    if not math.isfinite(sup) or math.isnan(sum(moduli)):
        raise InvalidInputError(f"coordinates must be finite, got {c}")
    if sup <= 10.0 * tol:
        raise InconsistencyError(
            "all coordinates are below 10x the evaluation tolerance; "
            "theta fourth powers have no common zero on H2"
        )
    c.setflags(write=False)
    _set(point, "coords", c)
    _set(point, "tol", tol)
    _set(point, "sup", sup)
    _set(point, "_moduli", moduli)


def _numbers(x, what: str = "expected an array of numbers", shape=None, copy: bool = False) -> np.ndarray:
    """x as a complex array, of the given shape if any, and a new one if copy; InvalidInputError, with
    ``what`` as the message, unless numpy reads x as numbers, which ragged rows, strings, sets and
    generators are not."""
    try:
        a = np.asarray(x)
        if a.dtype.kind in "biufc" and (shape is None or a.shape == shape):
            return a.astype(complex, copy=copy)
    except ValueError:  # ragged rows
        pass
    raise InvalidInputError(f"{what}, got {x!r}")


def psi(tau, tol: float = DEFAULT_TOL_FOURTH) -> ProjectivePoint:
    """Embed tau (or its orbit) into P^9 via the even theta fourth powers.

    tau and tol are read once, as theta_fourth_vector reads them, and the
    point takes over the new array of its core without reading it again."""
    if not isinstance(tau, SiegelPoint):
        tau = SiegelPoint.from_matrix(tau)
    tol = _real(tol, _TINY, math.inf, "tol must be finite and positive")
    return ProjectivePoint._trusted(_fourth_vector(tau, tol), tol)


def projective_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """sigma_2 / sigma_1 of the two stacked unit-norm coordinate rows.

    Zero iff the points agree projectively; insensitive to the overall scale
    of either representative.
    """
    rows = np.vstack([
        p.coords / np.linalg.norm(p.coords),
        q.coords / np.linalg.norm(q.coords),
    ])
    s = np.linalg.svd(rows, compute_uv=False)
    return float(s[1] / s[0])


def near_zero_coordinates(p: ProjectivePoint) -> set[int]:
    """Indices i with |coords[i]| <= DEFAULT_REL_TOL * max|coords|, read off the moduli the point keeps."""
    cut = DEFAULT_REL_TOL * p.sup
    return {i for i, m in enumerate(p._moduli) if m <= cut}


def is_product_locus(tau) -> bool | None:
    """Numerical detector of the product-of-elliptic-curves divisors.

    Reduces tau to the fundamental domain and tests whether exactly one
    embedding coordinate is near zero.  Returns None (indeterminate) when the
    reduced point lies in the tube Im(tau4) >= DEFAULT_TUBE_CUTOFF: close to
    the cusps several coordinates decay at once and a single vanishing
    coordinate is no longer a meaningful signal.
    """
    reduced = reduce_to_fundamental_domain(tau).reduced
    if in_tube(reduced, DEFAULT_TUBE_CUTOFF):
        return None
    return len(near_zero_coordinates(psi(reduced))) == 1


def relation_singular_values(samples: list[ProjectivePoint]) -> np.ndarray:
    """Singular values of the matrix of sup-normalized sample coordinates."""
    if len(samples) < 10:
        raise InvalidInputError(f"need at least 10 samples, got {len(samples)}")
    return _singular_values(samples, len(samples))


def _singular_values(points, n: int) -> np.ndarray:
    """Singular values of the n x 10 matrix whose rows are the sup-normalized
    coordinates of the n points that the iterable ``points`` yields, filled
    row by row, so that no point need outlive its row, and scaled at once."""
    sups = []

    def rows():
        for p in points:
            sups.append(p.sup)
            yield p.coords

    m = np.fromiter(rows(), np.dtype((complex, 10)), n)
    m /= np.array(sups)[:, None]
    return np.linalg.svd(m, compute_uv=False)


def relation_rank(samples: list[ProjectivePoint]) -> int:
    """Numerical rank of the span of the sampled embedding coordinates.

    The ten theta fourth powers satisfy five independent linear relations
    (their image is the Igusa quartic in a P^4), so generic sampling yields 5.
    Singular values above _RANK_CUTOFF (1e-6) times the largest count toward the rank.
    """
    return _numerical_rank(relation_singular_values(samples))


def _numerical_rank(s: np.ndarray) -> int:
    """The count of singular values s, largest first, above _RANK_CUTOFF times s[0]."""
    return int(np.sum(s > _RANK_CUTOFF * s[0]))


def archimedean_height_estimate(points, degree: int, multiplicities=None) -> float:
    """Archimedean part of a height from one embedding value per place.

    Assumes the coordinates are algebraic integers of unit content, so the
    finite places contribute nothing; the estimate is
    (1/degree) * sum_v mult_v * log max|coords_v|.  A place is given as a
    ProjectivePoint, whose sup is read, or as any array-like of complex
    coordinates, finite and not all zero.  The degree must be an integral number, and each explicit
    multiplicity 1 (a real place) or 2 (a complex place).  When
    multiplicities are omitted they are inferred: all real places if
    degree == len(points), all complex if degree == 2 * len(points).
    """
    points = _sequence(points, None, "the places must be an iterable")
    if multiplicities is not None:
        multiplicities = _sequence(multiplicities, _integral, "multiplicities must be integers")
    degree = _integral(degree, 1, "degree must be a positive integer")
    if multiplicities is None:
        # all real if the degree is the number of places, all complex if twice it; else refused below
        multiplicities = [degree // max(1, len(points))] * len(points)
    if len(multiplicities) != len(points) or sum(multiplicities) != degree or not {1, 2} >= set(multiplicities):
        raise InvalidInputError(f"{len(points)} places need multiplicities of 1 or 2 with sum {degree}, "
                                f"got {multiplicities}")
    total = 0.0
    for p, mult in zip(points, multiplicities):
        sup = p.sup if isinstance(p, ProjectivePoint) else float(np.max(np.abs(_numbers(p)), initial=0.0))
        if not 0.0 < sup < math.inf:
            raise InvalidInputError(f"a place needs finite coordinates, not all zero; got sup {sup}")
        total += mult * math.log(sup)
    return total / degree
