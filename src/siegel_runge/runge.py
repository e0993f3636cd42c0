"""Combinatorics of the tubular Runge condition.

The geometric input is reduced to incidence data: r ample divisors, plus the
family of index subsets whose common intersection is nonempty and not
contained in the excluded closed set Y.  From it come the two integers

* m   -- largest number of divisors with nonempty common intersection
         (the Y-empty reading of the data), and
* m_Y -- largest number whose common intersection escapes Y,

and the finiteness condition m_Y * |S| < r.  The Siegel specializations for
even level n are closed formulas: n^4/2 + 2 divisors and m_Y = n^2 - 3, with
an exact incidence witness available at n = 2.
"""

from __future__ import annotations

from itertools import islice

from .errors import InvalidInputError, _integral, _Record, _sequence


_MAX_LEVEL = 20


class DivisorIncidence(_Record):
    """Incidence data for r divisors.

    ``outside_y`` lists subsets of {1..r} whose intersection is nonempty and
    not contained in Y, as any iterable of iterables of indices.  The family
    is normalized on construction to the antichain of its maximal subsets,
    a tuple of frozensets (smaller subsets are implied by downward closure).
    Every divisor must appear in some subset: a divisor contained in Y is
    outside the supported setup and rejected.  ``r`` and the indices must be
    integral numbers; 3.9 raises InvalidInputError.
    """

    __slots__ = ("r", "outside_y")

    def __init__(self, r: int, outside_y):
        r = _integral(r, 1, "divisor count r must be an integer >= 1")
        what = "outside_y must be an iterable of subsets of integer indices"
        sets = {frozenset(_sequence(s, _integral, what)) for s in _sequence(outside_y, None, what)}
        sets.discard(frozenset())
        for s in sets:
            if not all(1 <= i <= r for i in s):
                raise InvalidInputError(f"subset {sorted(s)} uses indices outside 1..{r}")
        maximal = [s for s in sets if not any(s < t for t in sets)]
        covered = frozenset().union(*maximal) if maximal else frozenset()
        # the indices lie in 1..r, so only a short cover leaves some out
        if len(covered) < r:
            missing = list(islice((i for i in range(1, r + 1) if i not in covered), 10))
            raise InvalidInputError(
                f"{r - len(covered)} divisors appear in no subset (contained in Y), "
                f"first {missing}; unsupported"
            )
        maximal.sort(key=lambda s: (len(s), sorted(s)))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "outside_y", tuple(maximal))


def m_y_value(incidence: DivisorIncidence) -> int:
    """Largest number of divisors whose common intersection is not inside Y.

    With Y empty the listed subsets are exactly those with nonempty
    intersection, and the same function gives m.
    """
    return max(len(s) for s in incidence.outside_y)


class RungeVerdict(_Record):
    """One evaluation of the condition m_used * s < r."""

    __slots__ = ("m_used", "s", "r", "holds")

    def __init__(self, m_used: int, s: int, r: int, holds: bool):
        object.__setattr__(self, "m_used", m_used)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "holds", holds)

    def to_json(self) -> dict:
        return {"holds": self.holds, "m": self.m_used, "s": self.s, "r": self.r}


def runge_condition(m_y: int, s: int, r: int) -> RungeVerdict:
    """The strict inequality m_Y * |S| < r as a verdict record.  The three
    counts must be integral numbers; 1.5 raises InvalidInputError."""
    m_y = _integral(m_y, 1, "m_y must be an integer >= 1")
    s = _integral(s, 1, "s must be an integer >= 1")
    r = _integral(r, 1, "r must be an integer >= 1")
    return RungeVerdict(m_used=m_y, s=s, r=r, holds=m_y * s < r)


def _check_level(n: int) -> int:
    n = _integral(n)
    if n < 2 or n % 2 != 0 or n > _MAX_LEVEL:
        raise InvalidInputError(f"level must be even with 2 <= n <= {_MAX_LEVEL}, got {n}")
    return n


def siegel_divisor_count(n: int) -> int:
    """Number of distinct theta divisors at even level n: n^4/2 + 2.

    Counts orbits of (a, b) in (Z/n)^4 under negation, minus the six classes
    of 2-torsion points that always lie on the theta divisor.
    """
    n = _check_level(n)
    return n**4 // 2 + 2


def siegel_m_y(n: int) -> int:
    """The tube-adjusted intersection number at even level n: n^2 - 3."""
    n = _check_level(n)
    return n * n - 3


def siegel_runge_condition(n: int, s_l: int) -> RungeVerdict:
    """The level-n condition (n^2 - 3) s_L < n^4/2 + 2."""
    s_l = _integral(s_l, 1, "s_l must be an integer >= 1")
    return runge_condition(siegel_m_y(n), s_l, siegel_divisor_count(n))


def siegel_incidence() -> DivisorIncidence:
    """Incidence witness at level 2: ten divisors, pairwise intersections
    all inside the boundary, so the maximal outside-Y subsets are the
    singletons and m_Y = 1."""
    return DivisorIncidence(10, [{i} for i in range(1, 11)])
