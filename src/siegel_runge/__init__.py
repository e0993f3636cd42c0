"""Computational toolkit for the level-2 Siegel modular threefold.

Capabilities: genus-2 theta constants with rigorously bounded truncation
error, reduction to the Sp4(Z) fundamental domain, the projective embedding
by the ten even theta fourth powers, Weil heights over Q and Q(i) with the
explicit height-bound cases, and the combinatorial finiteness condition
m_Y * |S| < r together with its even-level specializations.

``_MODULE_EXPORTS`` below is the list of public names, by the module that
defines each; no module repeats it in an ``__all__``.  The names are imported
from their modules on first access (PEP 562) and then kept in this module's
namespace, so ``import siegel_runge`` loads no numpy and a repeated
``siegel_runge.psi`` is a plain attribute lookup.
"""

import importlib

_MODULE_EXPORTS = {
    "embedding": (
        "ProjectivePoint",
        "archimedean_height_estimate",
        "is_product_locus",
        "near_zero_coordinates",
        "projective_distance",
        "psi",
        "relation_rank",
        "relation_singular_values",
    ),
    "errors": (
        "ConditioningError",
        "InconsistencyError",
        "InvalidInputError",
        "NonConvergenceError",
        "ResourceLimitError",
        "SiegelRungeError",
    ),
    "halfspace": (
        "J",
        "MIN_TUBE_PARAMETER",
        "ReductionResult",
        "SiegelPoint",
        "SymplecticMatrix",
        "act",
        "gl2_embedding",
        "gottschling_matrices",
        "in_tube",
        "is_level2",
        "is_symplectic",
        "reduce_to_fundamental_domain",
        "translation",
    ),
    "heights": (
        "BoundReport",
        "bound_case_a",
        "bound_case_b",
        "weil_height_gaussian",
        "weil_height_rational",
    ),
    "runge": (
        "DivisorIncidence",
        "RungeVerdict",
        "m_y_value",
        "runge_condition",
        "siegel_divisor_count",
        "siegel_incidence",
        "siegel_m_y",
        "siegel_runge_condition",
    ),
    "sampling": ("random_level2_matrix", "random_symplectic_matrix", "sample_reduced_points"),
    "theta": (
        "Characteristic",
        "ThetaValue",
        "all_characteristics",
        "even_characteristics",
        "odd_characteristics",
        "tail_bound",
        "theta_constant",
        "theta_fourth_vector",
        "truncation_radius",
    ),
}

#: The one name -> module table the exports resolve through.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # cached: a later lookup finds the name here and never calls __getattr__
    globals()[name] = value
    return value


def __dir__():
    return __all__
