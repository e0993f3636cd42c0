"""Computational toolkit for the level-2 Siegel modular threefold.

Capabilities: genus-2 theta constants with rigorously bounded truncation
error, reduction to the Sp4(Z) fundamental domain, the projective embedding
by the ten even theta fourth powers, Weil heights over Q and Q(i) with the
explicit height-bound cases, and the combinatorial finiteness condition
m_Y * |S| < r together with its even-level specializations.
"""

from .embedding import (
    MIN_TUBE_PARAMETER,
    ProjectivePoint,
    TubeParameter,
    in_tube,
    is_product_locus,
    near_zero_coordinates,
    projective_distance,
    psi,
    relation_rank,
    relation_singular_values,
)
from .errors import (
    ConditioningError,
    InconsistencyError,
    InvalidInputError,
    NonConvergenceError,
    ResourceLimitError,
    SiegelRungeError,
)
from .halfspace import (
    J,
    ReductionResult,
    SiegelPoint,
    SymplecticMatrix,
    act,
    gl2_embedding,
    gottschling_matrices,
    is_in_H2,
    is_level2,
    is_symplectic,
    reduce_to_fundamental_domain,
    translation,
)
from .heights import (
    BoundReport,
    archimedean_height_estimate,
    bound_case_a,
    bound_case_b,
    weil_height_gaussian,
    weil_height_rational,
)
from .runge import (
    DivisorIncidence,
    RungeVerdict,
    m_y_value,
    runge_condition,
    siegel_divisor_count,
    siegel_incidence,
    siegel_m_y,
    siegel_runge_condition,
)
from .sampling import random_level2_matrix, random_symplectic_matrix, sample_reduced_points
from .theta import (
    Characteristic,
    ThetaValue,
    all_characteristics,
    even_characteristics,
    odd_characteristics,
    tail_bound,
    theta_constant,
    theta_fourth_vector,
    truncation_radius,
)

__version__ = "0.1.0"
