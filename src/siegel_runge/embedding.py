"""The ten-theta projective embedding of the level-2 Siegel threefold.

psi sends tau to the point of P^9 with coordinates Theta_m(tau)^4 over the
ten even characteristics.  The image of a point depends only on its level-2
orbit; the full integral symplectic group permutes the coordinates up to a
common factor.  Exactly one coordinate vanishes on the locus parametrizing
products of elliptic curves, and more coordinates decay together as the
fundamental-domain representative escapes toward the cusps, which is what
the tube test Im(tau4) >= t delimits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError, InvalidInputError
from .halfspace import SiegelPoint, reduce_to_fundamental_domain
from .theta import DEFAULT_TOL_FOURTH, theta_fourth_vector

__all__ = [
    "MIN_TUBE_PARAMETER",
    "ProjectivePoint",
    "TubeParameter",
    "psi",
    "projective_distance",
    "near_zero_coordinates",
    "is_product_locus",
    "relation_singular_values",
    "relation_rank",
    "in_tube",
]

#: Tube parameters below sqrt(3)/2 do not describe a neighborhood of the cusps.
MIN_TUBE_PARAMETER = math.sqrt(3.0) / 2.0

#: Relative cutoff used when deciding whether a coordinate is "near zero".
DEFAULT_REL_TOL = 1e-6

#: Reduced points with Im(tau4) past this are treated as too close to the
#: cusps for vanishing-pattern classification.
DEFAULT_TUBE_CUTOFF = 2.0

_RANK_CUTOFF = 1e-6


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^9 given by 10 complex coordinates, not all tiny.

    ``tol`` records the absolute evaluation tolerance the coordinates carry;
    ``sup`` is max|coords|, computed once here.
    """

    coords: np.ndarray
    tol: float
    sup: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex)
        if c.shape != (10,):
            raise InvalidInputError(f"expected 10 coordinates, got shape {c.shape}")
        object.__setattr__(self, "coords", c)
        c.setflags(write=False)
        object.__setattr__(self, "sup", float(np.abs(c).max()))
        if self.sup <= 10.0 * self.tol:
            raise InconsistencyError(
                "all coordinates are below 10x the evaluation tolerance; "
                "theta fourth powers have no common zero on H2"
            )

    def normalized(self) -> np.ndarray:
        """Coordinates scaled to unit sup-norm."""
        return self.coords / self.sup


def psi(tau, tol: float = DEFAULT_TOL_FOURTH) -> ProjectivePoint:
    """Embed tau (or its orbit) into P^9 via the even theta fourth powers."""
    return ProjectivePoint(theta_fourth_vector(tau, tol), tol)


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
    """Indices i with |coords[i]| <= DEFAULT_REL_TOL * max|coords|."""
    return set((np.abs(p.coords) <= DEFAULT_REL_TOL * p.sup).nonzero()[0].tolist())


def is_product_locus(tau) -> bool | None:
    """Numerical detector of the product-of-elliptic-curves divisors.

    Reduces tau to the fundamental domain and tests whether exactly one
    embedding coordinate is near zero.  Returns None (indeterminate) when the
    reduced point lies in the tube Im(tau4) >= DEFAULT_TUBE_CUTOFF: close to
    the cusps several coordinates decay at once and a single vanishing
    coordinate is no longer a meaningful signal.
    """
    reduced = reduce_to_fundamental_domain(tau).reduced
    if reduced.tau4.imag >= DEFAULT_TUBE_CUTOFF:
        return None
    return len(near_zero_coordinates(psi(reduced))) == 1


def relation_singular_values(samples: list[ProjectivePoint]) -> np.ndarray:
    """Singular values of the matrix of sup-normalized sample coordinates."""
    if len(samples) < 10:
        raise InvalidInputError(f"need at least 10 samples, got {len(samples)}")
    m = np.array([p.coords for p in samples]) / np.array([p.sup for p in samples])[:, None]
    return np.linalg.svd(m, compute_uv=False)


def relation_rank(samples: list[ProjectivePoint]) -> int:
    """Numerical rank of the span of the sampled embedding coordinates.

    The ten theta fourth powers satisfy five independent linear relations
    (their image is the Igusa quartic in a P^4), so generic sampling yields 5.
    Singular values above _RANK_CUTOFF (1e-6) times the largest count toward the rank.
    """
    s = relation_singular_values(samples)
    return int(np.sum(s > _RANK_CUTOFF * s[0]))


@dataclass(frozen=True)
class TubeParameter:
    """Height parameter of the cusp neighborhood; must be >= sqrt(3)/2."""

    t: float

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < MIN_TUBE_PARAMETER:
            raise InvalidInputError(
                f"tube parameter must be >= sqrt(3)/2 ~ {MIN_TUBE_PARAMETER:.6f}, got {self.t}"
            )


def in_tube(reduced_tau: SiegelPoint, t) -> bool:
    """Membership of a fundamental-domain representative in the cusp tube.

    ``reduced_tau`` must already be reduced (the tube is defined inside the
    fundamental domain); membership is Im(tau4) >= t.
    """
    tp = t if isinstance(t, TubeParameter) else TubeParameter(float(t))
    return reduced_tau.tau4.imag >= tp.t
