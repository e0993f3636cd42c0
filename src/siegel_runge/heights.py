"""Weil heights over Q and Q(i), and the explicit height-bound formulas.

Heights use the max-norm at archimedean places and natural logarithms
throughout; projective coordinates are normalized to unit content (gcd 1),
which both Z and the Gaussian integers support exactly.  The two bound
evaluators package the explicit constants of the final theorem: they only
consume the combinatorial inputs (bad-place counts, tube parameter) and
never attempt to compute a Faltings height.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .embedding import ProjectivePoint, TubeParameter
from .errors import InvalidInputError, _integral

__all__ = [
    "BoundReport",
    "weil_height_rational",
    "weil_height_gaussian",
    "archimedean_height_estimate",
    "bound_case_a",
    "bound_case_b",
]

FIELD_KINDS = ("rational", "imaginary_quadratic")


def weil_height_rational(coords) -> float:
    """log max|c_i| after dividing out the integer gcd.

    Scaling-invariant and nonnegative; coordinates must be integral numbers,
    not all zero (2.5 raises InvalidInputError rather than truncating).
    """
    cs = [_integral(c) for c in coords]
    if not cs or all(c == 0 for c in cs):
        raise InvalidInputError("coordinates must not be all zero")
    g = math.gcd(*cs)
    return math.log(max(abs(c) for c in cs) // g)


def _as_gaussian(z) -> tuple[int, int]:
    """(re, im) of a Gaussian integer given as a number or a pair; both parts
    must be integral.  Integers and pairs are taken exactly; only other
    numbers pass through complex, whose parts are floats."""
    if isinstance(z, (tuple, list)) and len(z) == 2:
        x, y = z
    elif isinstance(z, numbers.Complex) and not isinstance(z, numbers.Integral):
        z = complex(z)
        x, y = z.real, z.imag
    else:  # an integer, or what _integral refuses
        x, y = z, 0
    return _integral(x), _integral(y)


def _g_norm(g: tuple[int, int]) -> int:
    return g[0] * g[0] + g[1] * g[1]


def _g_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _divround(a: int, b: int) -> int:
    # round-half-up of a/b for b > 0, exact in integers
    return (2 * a + b) // (2 * b)


def _g_mod(u, v):
    # remainder of u/v with norm at most half the norm of v
    n = _g_norm(v)
    num = _g_mul(u, (v[0], -v[1]))
    q = (_divround(num[0], n), _divround(num[1], n))
    return (u[0] - q[0] * v[0] + q[1] * v[1], u[1] - q[0] * v[1] - q[1] * v[0])


def _g_gcd(u, v):
    while v != (0, 0):
        u, v = v, _g_mod(u, v)
    return u


def _g_exact_div(u, g):
    n = _g_norm(g)
    num = _g_mul(u, (g[0], -g[1]))
    if num[0] % n or num[1] % n:
        raise InvalidInputError("exact Gaussian division failed")
    return (num[0] // n, num[1] // n)


def weil_height_gaussian(coords) -> float:
    """Weil height of a projective point with Gaussian-integer coordinates.

    Normalizes by the Z[i]-gcd, then returns log of the largest coordinate
    modulus, as half the log of the exact integer norm; agrees with
    :func:`weil_height_rational` on rational input.  Coordinates may be
    integers or (re, im) pairs, taken exactly, or complex numbers with
    integral parts.
    """
    cs = [_as_gaussian(c) for c in coords]
    if not cs or all(c == (0, 0) for c in cs):
        raise InvalidInputError("coordinates must not be all zero")
    g = (0, 0)
    for c in cs:
        g = _g_gcd(g, c)
    normalized = [_g_exact_div(c, g) for c in cs]
    return 0.5 * math.log(max(_g_norm(c) for c in normalized))


def archimedean_height_estimate(points, degree: int, multiplicities=None) -> float:
    """Archimedean part of a height from one embedding value per place.

    Assumes the coordinates are algebraic integers of unit content, so the
    finite places contribute nothing; the estimate is
    (1/degree) * sum_v mult_v * log max|coords_v|.  When multiplicities are
    omitted they are inferred: all real places if degree == len(points), all
    complex (weight 2) if degree == 2 * len(points).
    """
    if not points:
        raise InvalidInputError("need at least one archimedean embedding")
    if degree < 1:
        raise InvalidInputError("degree must be a positive integer")
    if multiplicities is None:
        if degree == len(points):
            multiplicities = [1] * len(points)
        elif degree == 2 * len(points):
            multiplicities = [2] * len(points)
        else:
            raise InvalidInputError(
                "cannot infer place multiplicities; pass them explicitly"
            )
    if len(multiplicities) != len(points) or sum(multiplicities) != degree:
        raise InvalidInputError("multiplicities must sum to the degree")
    total = 0.0
    for p, mult in zip(points, multiplicities):
        sup = p.sup if isinstance(p, ProjectivePoint) else float(np.max(np.abs(np.asarray(p, dtype=complex))))
        total += mult * math.log(sup)
    return total / degree


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one of the explicit bound cases.

    Bounds are present exactly when the counting condition holds; the inputs
    are echoed for reproducible reporting.
    """

    condition_holds: bool
    h_psi_bound: float | None
    h_faltings_bound: float | None
    inputs: dict

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
    height is <= 1070.
    """
    if s_p < 0:
        raise InvalidInputError("s_p must be a nonnegative count")
    if field_kind not in FIELD_KINDS:
        raise InvalidInputError(f"field_kind must be one of {FIELD_KINDS}")
    holds = s_p < 4
    return BoundReport(
        condition_holds=holds,
        h_psi_bound=10.75 if holds else None,
        h_faltings_bound=1070.0 if holds else None,
        inputs={"case": "a", "s_p": int(s_p), "field": field_kind},
    )


def bound_case_b(s_p: int, archimedean_places: int, t) -> BoundReport:
    """Bounds for points avoiding the tube U_t over any number field.

    Requires s_P + (number of archimedean places) < 10; then
    h(psi(P)) <= 4 pi t + 6.14 and the stable Faltings height is at most
    2 pi t + 535 log(2 pi t + 9), natural logarithm.
    """
    if s_p < 0:
        raise InvalidInputError("s_p must be a nonnegative count")
    if archimedean_places < 1:
        raise InvalidInputError("a number field has at least one archimedean place")
    tp = t if isinstance(t, TubeParameter) else TubeParameter(float(t))
    holds = s_p + archimedean_places < 10
    two_pi_t = 2.0 * math.pi * tp.t
    return BoundReport(
        condition_holds=holds,
        h_psi_bound=2.0 * two_pi_t + 6.14 if holds else None,
        h_faltings_bound=two_pi_t + 535.0 * math.log(two_pi_t + 9.0) if holds else None,
        inputs={
            "case": "b",
            "s_p": int(s_p),
            "places": int(archimedean_places),
            "t": float(tp.t),
        },
    )
