"""JSON encodings of the domain types, with reproducible number formatting.

All CLI output goes through :func:`dumps_canonical`, which renders floats
with 12 significant digits so identical inputs produce byte-identical
output across runs and platforms.
"""

from __future__ import annotations

import json
import numpy as np

from .embedding import ProjectivePoint
from .errors import InvalidInputError
from .halfspace import ReductionResult, SiegelPoint, SymplecticMatrix
from .runge import DivisorIncidence
from .theta import DEFAULT_TOL_FOURTH

__all__ = [
    "dumps_canonical",
    "siegel_point_to_json",
    "siegel_point_from_json",
    "symplectic_to_json",
    "symplectic_from_json",
    "projective_point_to_json",
    "projective_point_from_json",
    "reduction_to_json",
    "incidence_from_json",
]

#: Order tag recorded next to embedding coordinates.
COORD_ORDER = "lex(a1,a2,b1,b2)"


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise InvalidInputError("cannot serialize non-finite numbers")
    s = f"{x:.12g}"
    # ensure the token stays a JSON number that parses back to a float
    return s


def dumps_canonical(obj) -> str:
    """Serialize dicts/lists/numbers/strings deterministically.

    Dict insertion order is kept; floats use fixed 12-significant-digit
    formatting; ints stay ints.
    """
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def siegel_point_to_json(tau: SiegelPoint) -> dict:
    return {"tau1": _pair(tau.tau1), "tau2": _pair(tau.tau2), "tau4": _pair(tau.tau4)}


def siegel_point_from_json(data: dict) -> SiegelPoint:
    try:
        vals = [complex(data[k][0], data[k][1]) for k in ("tau1", "tau2", "tau4")]
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInputError(f"malformed SiegelPoint JSON: {exc}") from exc
    return SiegelPoint(*vals)


def symplectic_to_json(gamma: SymplecticMatrix) -> list[list[int]]:
    return [[int(x) for x in row] for row in gamma.mat]


def symplectic_from_json(data) -> SymplecticMatrix:
    arr = np.asarray(data)
    if arr.shape != (4, 4):
        raise InvalidInputError("SymplecticMatrix JSON must be a 4x4 integer array")
    return SymplecticMatrix(arr.astype(np.int64))


def projective_point_to_json(p: ProjectivePoint) -> dict:
    return {"coords": [_pair(z) for z in p.coords], "order": COORD_ORDER}


def projective_point_from_json(data: dict) -> ProjectivePoint:
    try:
        coords = np.array([complex(re, im) for re, im in data["coords"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed ProjectivePoint JSON: {exc}") from exc
    return ProjectivePoint(coords, DEFAULT_TOL_FOURTH)


def reduction_to_json(res: ReductionResult) -> dict:
    return {
        "reduced": siegel_point_to_json(res.reduced),
        "transform": symplectic_to_json(res.transform),
        "iterations": res.iterations,
    }


def incidence_from_json(data: dict) -> DivisorIncidence:
    try:
        return DivisorIncidence.from_subsets(int(data["r"]), [set(s) for s in data["outside_Y"]])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed DivisorIncidence JSON: {exc}") from exc
