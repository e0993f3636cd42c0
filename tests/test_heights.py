import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel_runge as sr

from oracles import gaussian_height_via_ideal_norm


nonzero_int = st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0)
coord_lists = st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=6).filter(
    lambda xs: any(xs)
)


class TestRationalHeight:
    def test_unit_point(self):
        assert sr.weil_height_rational([1, 1]) == 0.0

    def test_gcd_normalization(self):
        assert sr.weil_height_rational([2, 4, 8]) == pytest.approx(math.log(4), abs=1e-15)

    def test_scaling_examples(self):
        assert sr.weil_height_rational([3, 5]) == sr.weil_height_rational([6, 10])

    def test_all_zero_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_rational([0, 0, 0])

    @pytest.mark.parametrize("coords", [[2.5, 5], [float("nan"), 1], [float("inf"), 1]],
                             ids=["half", "nan", "inf"])
    def test_non_integral_rejected(self, coords):
        # (2.5 : 5) = (1 : 2) has height log 2; int() truncation read log 5
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_rational(coords)

    def test_integral_floats_accepted(self):
        assert sr.weil_height_rational([2.0, 4.0, 8]) == sr.weil_height_rational([2, 4, 8])

    @given(coord_lists, nonzero_int)
    @settings(max_examples=200, deadline=None)
    def test_scaling_invariance(self, coords, lam):
        assert sr.weil_height_rational([lam * c for c in coords]) == sr.weil_height_rational(coords)

    @given(coord_lists)
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, coords):
        assert sr.weil_height_rational(coords) >= 0.0


gaussian_coord = st.tuples(
    st.integers(min_value=-200, max_value=200), st.integers(min_value=-200, max_value=200)
)
gaussian_lists = st.lists(gaussian_coord, min_size=1, max_size=5).filter(
    lambda xs: any(x != (0, 0) for x in xs)
)


def gaussian_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


# products of small powers of the unit i, the ramified prime 1 + i, the inert
# prime 3 and the split pair 2 + i, 2 - i
gaussian_factors = st.lists(
    st.sampled_from([(0, 1), (1, 1), (3, 0), (2, 1), (2, -1)]), max_size=8
).map(lambda fs: functools.reduce(gaussian_mul, fs, (1, 0)))


class TestGaussianHeight:
    def test_units(self):
        assert sr.weil_height_gaussian([1, 1j]) == 0.0

    def test_half_log_two(self):
        # gcd 1+i; normalized (1, 1-i); max squared modulus 2
        assert sr.weil_height_gaussian([1 + 1j, 2]) == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_rational_consistency_exact(self):
        assert sr.weil_height_gaussian([2, 4, 8]) == sr.weil_height_rational([2, 4, 8])

    def test_all_zero_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_gaussian([0, 0])

    def test_non_integral_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_gaussian([0.5 + 1j, 2])

    @pytest.mark.parametrize("z", [float("nan"), complex(1, float("nan")), (1, float("inf")), (1, 0.5)],
                             ids=["nan", "nan-imag", "inf-pair", "half-pair"])
    def test_non_finite_or_non_integral_part_rejected(self, z):
        # both parts go through one integrality check
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_gaussian([z, 1])

    @pytest.mark.parametrize("z", ["abc", None], ids=["string", "none"])
    def test_non_number_rejected(self, z):
        # complex("abc") raised a bare ValueError
        with pytest.raises(sr.InvalidInputError):
            sr.weil_height_gaussian([z, 1])

    @pytest.mark.parametrize("big", [2**60 + 1, (2**60 + 1, 0)], ids=["int", "pair"])
    def test_integer_past_double_precision_is_exact(self, big):
        # an int went through complex() and was rounded to 2^60, which gave
        # log 2^59 for the point (2^60 + 1 : 2)
        want = sr.weil_height_rational([2**60 + 1, 2])
        assert sr.weil_height_gaussian([big, 2]) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(math.log(2**60 + 1), rel=1e-15)

    def test_norm_past_double_range(self):
        # the squared modulus 2^1200 has no float square root
        got = sr.weil_height_gaussian([(2**600, 0), (1, 0)])
        assert got == pytest.approx(600 * math.log(2), rel=1e-15)

    @given(gaussian_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_ideal_norm_oracle(self, coords):
        got = sr.weil_height_gaussian(coords)
        want = gaussian_height_via_ideal_norm(coords)
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= -1e-15

    @given(gaussian_lists, gaussian_factors)
    @settings(max_examples=200, deadline=None)
    def test_scaling_by_gaussian_unit_times_integer(self, coords, lam):
        scaled = [gaussian_mul(c, lam) for c in coords]
        # both sides take the log of the same integer
        assert sr.weil_height_gaussian(scaled) == sr.weil_height_gaussian(coords)


class TestArchimedeanEstimate:
    def test_max_normalized_point_contributes_zero(self):
        p = sr.ProjectivePoint(np.array([1.0 + 0j] + [0.25 + 0j] * 9), 1e-8)
        assert sr.archimedean_height_estimate([p], 1) == 0.0

    def test_degree_weighted_average(self):
        p = sr.psi(sr.SiegelPoint(1j, 0, 1j))
        one = sr.archimedean_height_estimate([p], 1)
        two = sr.archimedean_height_estimate([p, p], 2)
        assert one == pytest.approx(two, abs=1e-15)

    def test_complex_place_multiplicity(self):
        p = sr.psi(sr.SiegelPoint(1j, 0, 1j))
        assert sr.archimedean_height_estimate([p], 2) == pytest.approx(
            sr.archimedean_height_estimate([p], 1), abs=1e-15
        )

    def test_deterministic(self):
        a = sr.archimedean_height_estimate([sr.psi(sr.SiegelPoint(1j, 0, 1j))], 1)
        b = sr.archimedean_height_estimate([sr.psi(sr.SiegelPoint(1j, 0, 1j))], 1)
        assert a == b
        assert math.isfinite(a)

    def test_invalid_inputs(self):
        p = sr.psi(sr.SiegelPoint(1j, 0, 1j))
        with pytest.raises(sr.InvalidInputError):
            sr.archimedean_height_estimate([], 1)
        with pytest.raises(sr.InvalidInputError):
            sr.archimedean_height_estimate([p], 0)
        with pytest.raises(sr.InvalidInputError):
            sr.archimedean_height_estimate([p, p, p], 5)
        with pytest.raises(sr.InvalidInputError):
            sr.archimedean_height_estimate([p], 2, multiplicities=[1])


class TestBoundCaseA:
    def test_holds_with_three_bad_places(self):
        rep = sr.bound_case_a(3, "rational")
        assert rep.condition_holds
        assert rep.h_psi_bound == 10.75
        assert rep.h_faltings_bound == 1070.0

    def test_fails_at_four(self):
        rep = sr.bound_case_a(4, "rational")
        assert not rep.condition_holds
        assert rep.h_psi_bound is None and rep.h_faltings_bound is None

    def test_imaginary_quadratic(self):
        rep = sr.bound_case_a(0, "imaginary_quadratic")
        assert rep.condition_holds and rep.h_psi_bound == 10.75

    def test_validation(self):
        with pytest.raises(sr.InvalidInputError):
            sr.bound_case_a(-1, "rational")
        with pytest.raises(sr.InvalidInputError):
            sr.bound_case_a(1, "real_quadratic")

    def test_json_shape(self):
        data = sr.bound_case_a(3, "rational").to_json()
        assert data == {
            "case": "a", "holds": True, "h_psi": 10.75, "h_faltings": 1070.0,
            "s_p": 3, "field": "rational",
        }


class TestBoundCaseB:
    def test_example_t_one(self):
        rep = sr.bound_case_b(3, 1, 1.0)
        assert rep.condition_holds
        assert rep.h_psi_bound == pytest.approx(4 * math.pi + 6.14, abs=1e-12)
        assert rep.h_faltings_bound == pytest.approx(
            2 * math.pi + 535 * math.log(2 * math.pi + 9), abs=1e-12
        )

    def test_strictness_at_ten(self):
        assert not sr.bound_case_b(9, 1, 1.0).condition_holds
        assert sr.bound_case_b(8, 1, 1.0).condition_holds

    def test_minimal_tube_parameter(self):
        rep = sr.bound_case_b(0, 1, math.sqrt(3) / 2)
        assert rep.h_psi_bound == pytest.approx(4 * math.pi * math.sqrt(3) / 2 + 6.14, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(sr.InvalidInputError):
            sr.bound_case_b(0, 1, 0.5)
        with pytest.raises(sr.InvalidInputError):
            sr.bound_case_b(0, 0, 1.0)

    def test_monotone_in_t(self):
        reports = [sr.bound_case_b(0, 1, t) for t in (0.9, 1.3, 2.4)]
        psi_bounds = [r.h_psi_bound for r in reports]
        fal_bounds = [r.h_faltings_bound for r in reports]
        assert psi_bounds == sorted(psi_bounds) and len(set(psi_bounds)) == 3
        assert fal_bounds == sorted(fal_bounds) and len(set(fal_bounds)) == 3

    def test_against_high_precision_reference(self):
        from mpmath import mp

        mp.dps = 50
        rep = sr.bound_case_b(0, 1, 1.0)
        assert rep.h_psi_bound == pytest.approx(float(4 * mp.pi + mp.mpf("6.14")), abs=1e-12)
        assert rep.h_faltings_bound == pytest.approx(
            float(2 * mp.pi + 535 * mp.log(2 * mp.pi + 9)), abs=1e-12
        )
