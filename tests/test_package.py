import importlib

import pytest

import siegel_runge as sr

#: Every name the package exports, by the module that defines it.
EXPORTS = {
    "embedding": ["ProjectivePoint", "archimedean_height_estimate", "is_product_locus", "near_zero_coordinates",
                  "projective_distance", "psi", "relation_rank", "relation_singular_values"],
    "errors": ["ConditioningError", "InconsistencyError", "InvalidInputError", "NonConvergenceError",
               "ResourceLimitError", "SiegelRungeError"],
    "halfspace": ["J", "MIN_TUBE_PARAMETER", "ReductionResult", "SiegelPoint", "SymplecticMatrix", "act",
                  "gl2_embedding", "gottschling_matrices", "in_tube", "is_level2", "is_symplectic",
                  "reduce_to_fundamental_domain", "translation"],
    "heights": ["BoundReport", "bound_case_a", "bound_case_b", "weil_height_gaussian", "weil_height_rational"],
    "runge": ["DivisorIncidence", "RungeVerdict", "m_y_value", "runge_condition", "siegel_divisor_count",
              "siegel_incidence", "siegel_m_y", "siegel_runge_condition"],
    "sampling": ["random_level2_matrix", "random_symplectic_matrix", "sample_reduced_points"],
    "theta": ["Characteristic", "ThetaValue", "all_characteristics", "even_characteristics", "odd_characteristics",
              "tail_bound", "theta_constant", "theta_fourth_vector", "truncation_radius"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestLazyExports:
    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_resolves_to_its_module_object_and_is_cached(self, module, name):
        vars(sr).pop(name, None)
        assert getattr(sr, name) is getattr(importlib.import_module(f"siegel_runge.{module}"), name)
        # a cached name is a plain global: later lookups never reach __getattr__
        assert name in vars(sr)

    def test_all_and_dir_list_the_exports(self):
        assert sorted(sr.__all__) == NAMES
        assert dir(sr) == NAMES
        assert len(NAMES) == 52

    @pytest.mark.parametrize("module", EXPORTS)
    def test_export_table_matches_the_module_all(self, module):
        # the package repeats each module's __all__; errors has none
        mod = importlib.import_module(f"siegel_runge.{module}")
        if module == "errors":
            assert not hasattr(mod, "__all__")
        else:
            assert sorted(mod.__all__) == sorted(sr._MODULE_EXPORTS[module])
        assert sorted(sr._MODULE_EXPORTS[module]) == EXPORTS[module]

    def test_star_import(self):
        namespace = {}
        exec("from siegel_runge import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sr.no_such_name
