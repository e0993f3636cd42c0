"""Exact Weil heights over Q and Q(i), and the explicit height-bound cases.

Heights use the max-norm at archimedean places and natural logarithms
throughout.  The finite places enter only through the norm of the content
ideal, an exact integer: the gcd of the coordinates over Z, and over Z[i]
a gcd of rational integers, described at :func:`weil_height_gaussian`.
The two bound evaluators package the explicit constants of the final
theorem: they only consume the combinatorial inputs (bad-place counts,
tube parameter) and never attempt to compute a Faltings height.  Everything
here is integer and float arithmetic without numpy; the height estimate
from floating-point embedding values is
:func:`~siegel_runge.embedding.archimedean_height_estimate`.
"""

from __future__ import annotations

import math
import numbers

from .errors import _TUBE, MIN_TUBE_PARAMETER, InvalidInputError, _integral, _real, _Record, _sequence


FIELD_KINDS = ("rational", "imaginary_quadratic")


def weil_height_rational(coords) -> float:
    """log max|c_i| after dividing out the integer gcd.

    Scaling-invariant and nonnegative; coordinates must be integral numbers,
    not all zero (2.5 raises InvalidInputError rather than truncating).
    """
    cs = _sequence(coords, _integral, "coordinates must be integral numbers")
    if not any(cs):
        raise InvalidInputError("coordinates must not be all zero")
    g = math.gcd(*cs)
    return math.log(max(abs(c) for c in cs) // g)


def _as_gaussian(z) -> tuple[int, int]:
    """(re, im) of a Gaussian integer given as a number or a pair; both parts
    must be integral.  Integers and pairs are taken exactly; other numbers
    give their real and imaginary parts, and anything else _integral refuses."""
    if isinstance(z, (tuple, list)) and len(z) == 2:
        return _integral(z[0]), _integral(z[1])
    if isinstance(z, numbers.Integral) or not isinstance(z, numbers.Complex):
        return _integral(z), 0
    return _integral(z.real), _integral(z.imag)


def weil_height_gaussian(coords) -> float:
    """Weil height of a projective point with Gaussian-integer coordinates.

    The height is (1/2) log(max_k N(c_k) / N(g)) for the content ideal
    (g).  The c_k and i c_k span (g) as a sublattice of Z[i] = Z^2 of index
    N(g), and that index is the gcd of the lattice's 2x2 minors, which are
    Re and Im of c_j conj(c_k) over all pairs j <= k.  Each N(c_k / g) =
    N(c_k) / N(g) is an integer, so the quotient is exact and the result
    agrees with :func:`weil_height_rational` on rational input.  Coordinates
    may be integers or (re, im) pairs, taken exactly, or complex numbers
    with integral parts.
    """
    cs = _sequence(coords, _as_gaussian, "coordinates must be Gaussian integers")
    if not any(x or y for x, y in cs):
        raise InvalidInputError("coordinates must not be all zero")
    content = 0
    for j, (x, y) in enumerate(cs):
        for u, v in cs[j:]:
            content = math.gcd(content, x * u + y * v, x * v - y * u)
    return 0.5 * math.log(max(x * x + y * y for x, y in cs) // content)


class BoundReport(_Record):
    """Outcome of one of the explicit bound cases.

    Bounds are present exactly when the counting condition holds; the inputs
    are echoed for reproducible reporting.
    """

    __slots__ = ("condition_holds", "h_psi_bound", "h_faltings_bound", "inputs")

    def __init__(self, condition_holds: bool, h_psi_bound: float | None, h_faltings_bound: float | None,
                 inputs: dict):
        object.__setattr__(self, "condition_holds", condition_holds)
        object.__setattr__(self, "h_psi_bound", h_psi_bound)
        object.__setattr__(self, "h_faltings_bound", h_faltings_bound)
        object.__setattr__(self, "inputs", inputs)

    def to_json(self) -> dict:
        out = {"case": self.inputs.get("case"), "holds": self.condition_holds}
        if self.condition_holds:
            out["h_psi"] = self.h_psi_bound
            out["h_faltings"] = self.h_faltings_bound
        out.update({k: v for k, v in self.inputs.items() if k != "case"})
        return out


def bound_case_a(s_p: int, field_kind: str = "rational") -> BoundReport:
    """Bounds for Q or an imaginary quadratic field with s_P < 4.

    When the condition holds: h(psi(P)) <= 10.75 and the stable Faltings
    height is <= 1070.  s_p must be an integral number.
    """
    s_p = _integral(s_p, 0, "s_p must be a nonnegative count")
    if field_kind not in FIELD_KINDS:
        raise InvalidInputError(f"field_kind must be one of {FIELD_KINDS}")
    holds = s_p < 4
    return BoundReport(
        condition_holds=holds,
        h_psi_bound=10.75 if holds else None,
        h_faltings_bound=1070.0 if holds else None,
        inputs={"case": "a", "s_p": s_p, "field": field_kind},
    )


def bound_case_b(s_p: int, archimedean_places: int, t) -> BoundReport:
    """Bounds for points avoiding the tube U_t over any number field.

    Requires s_P + (number of archimedean places) < 10; then
    h(psi(P)) <= 4 pi t + 6.14 and the stable Faltings height is at most
    2 pi t + 535 log(2 pi t + 9), natural logarithm.  s_p and
    archimedean_places must be integral numbers.
    """
    s_p = _integral(s_p, 0, "s_p must be a nonnegative count")
    archimedean_places = _integral(archimedean_places, 1, "a number field has at least one archimedean place")
    t = _real(t, MIN_TUBE_PARAMETER, math.inf, _TUBE)
    holds = s_p + archimedean_places < 10
    two_pi_t = 2.0 * math.pi * t
    return BoundReport(
        condition_holds=holds,
        h_psi_bound=2.0 * two_pi_t + 6.14 if holds else None,
        h_faltings_bound=two_pi_t + 535.0 * math.log(two_pi_t + 9.0) if holds else None,
        inputs={"case": "b", "s_p": s_p, "places": archimedean_places, "t": t},
    )
