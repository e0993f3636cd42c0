import math

import numpy as np
import pytest

import siegel_runge as sr
from siegel_runge import theta
from siegel_runge.theta import Characteristic

from oracles import (
    naive_fourth_powers,
    plain_truncation_radii,
    tail_abs_sum,
    theta_1d,
    theta_2d_naive,
)


def small_y_points():
    """A reduced point and two level-2 images of it with 0.015 < y_min < 0.03."""
    tau = sr.sample_reduced_points(1, seed=51)[0]
    rng = np.random.default_rng(52)
    points = [tau]
    while len(points) < 3:
        image = sr.act(sr.random_level2_matrix(rng), tau)
        if 0.015 < image.min_imag_eigenvalue() < 0.03:
            points.append(image)
    return points


def rand_diag_tau(rng):
    return sr.SiegelPoint(
        complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
        0.0,
        complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
    )


class TestCharacteristics:
    def test_parity_examples(self):
        assert sr.parity(Characteristic((0, 0, 0, 0))) == "even"
        assert sr.parity(Characteristic((1, 0, 1, 0))) == "odd"

    def test_counts(self):
        assert len(sr.all_characteristics()) == 16
        assert len(sr.even_characteristics()) == 10
        assert len(sr.odd_characteristics()) == 6

    def test_even_ordering(self):
        evens = sr.even_characteristics()
        assert evens[0].bits == (0, 0, 0, 0)
        assert evens[-1].bits == (1, 1, 1, 1)
        assert list(evens) == sorted(evens)

    def test_from_halves(self):
        m = Characteristic.from_halves((0.5, 0), (0, 0.5))
        assert m.bits == (1, 0, 0, 1)
        assert m.a == (0.5, 0.0) and m.b == (0.0, 0.5)

    def test_validation(self):
        with pytest.raises(sr.InvalidInputError):
            Characteristic((0, 0, 0, 2))
        with pytest.raises(sr.InvalidInputError):
            Characteristic.from_halves((0.3, 0), (0, 0))


class TestTruncation:
    def test_unit_ymin_needs_tiny_radius(self):
        assert sr.truncation_radius(1.0, 1e-12) <= 4

    def test_monotone_in_ymin(self):
        assert sr.truncation_radius(0.5, 1e-10) >= sr.truncation_radius(1.0, 1e-10)

    def test_monotone_in_tol(self):
        assert sr.truncation_radius(0.7, 1e-6) <= sr.truncation_radius(0.7, 1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(sr.InvalidInputError):
            sr.truncation_radius(0.0, 1e-10)
        with pytest.raises(sr.InvalidInputError):
            sr.truncation_radius(1.0, 2.0)

    def test_resource_cap(self):
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(1e-9, 1e-10)

    def test_refusal_needs_no_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(theta, "tail_bound", lambda *args: calls.append(args) or 1.0)
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(1e-9, 1e-10)
        assert calls == []

    def test_search_start_keeps_every_radius(self):
        # the search starts near the answer; the plain scan from r = 1 agrees
        tols = np.geomspace(1e-14, 1e-2, 70)
        for y_min in np.geomspace(1e-6, 3.0, 400):
            got = []
            for tol in tols:
                try:
                    got.append(sr.truncation_radius(float(y_min), float(tol)))
                except sr.ResourceLimitError:
                    got.append(None)
            assert got == plain_truncation_radii(sr.tail_bound, float(y_min), tols)

    @pytest.mark.parametrize("y_min", [1e-60, 1e-120])
    def test_tiny_ymin_hits_the_cap(self, y_min):
        # exp(-2 pi y_min s) rounds to 1 here; the bound must stay finite
        assert 1.0 < sr.tail_bound(1, y_min) < math.inf
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(y_min, 1e-10)

    @pytest.mark.parametrize("y_min", [0.3, 1.0])
    @pytest.mark.parametrize("radius", [2, 4])
    def test_bound_dominates_brute_tail(self, y_min, radius):
        # worst case characteristic shift a = (1/2, 1/2) at Y = y_min * I
        brute = tail_abs_sum((1, 1, 0, 0), y_min * np.eye(2), radius)
        assert brute <= sr.tail_bound(radius, y_min)


class TestKernel:
    # Re tau2 and Im tau2 both nonzero; at radius 2 the truncated odd sums
    # are 1e-7 or more, far above rounding, so all 16 cells are checked
    TAU = sr.SiegelPoint(0.17 + 0.75j, -0.23 + 0.21j, 0.41 + 0.85j)
    RADIUS = 2

    def assert_matches_double_loop(self):
        chars = sr.all_characteristics()
        table = theta._theta_table(self.TAU, self.RADIUS)
        got = np.array([table[theta._cell(m)] for m in chars])
        want = np.array([theta_2d_naive(m.bits, self.TAU.matrix, self.RADIUS) for m in chars])
        assert min(abs(w) for m, w in zip(chars, want) if not m.is_even) > 1e-9
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_all_sixteen_match_double_loop(self):
        self.assert_matches_double_loop()

    def test_slab_boundaries_inside_both_halves(self, monkeypatch):
        # the axis has 2 (2r + 1) = 10 entries; slabs of 3 rows end at 3, 6, 9
        size = 2 * (2 * self.RADIUS + 1)
        monkeypatch.setattr(theta, "_SLAB_TERMS", 3 * size)
        self.assert_matches_double_loop()

    def test_cached_axis_is_linear_in_radius(self):
        r = 30
        assert sum(a.nbytes for a in theta._axis(r)) <= 64 * (2 * r + 1) * 16
        assert theta._axis.cache_info().maxsize is not None


class TestThetaConstant:
    def test_odd_vanish(self):
        rng = np.random.default_rng(31)
        for tau in sr.sample_reduced_points(5, seed=31):
            for m in sr.odd_characteristics():
                tv = sr.theta_constant(m, tau, 5e-13)
                assert abs(tv.value) <= 1e-12

    def test_diagonal_factorization(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            tau = rand_diag_tau(rng)
            for m in sr.all_characteristics():
                got = sr.theta_constant(m, tau, 1e-11).value
                want = theta_1d(m.bits[0], m.bits[2], tau.tau1) * theta_1d(
                    m.bits[1], m.bits[3], tau.tau4
                )
                assert abs(got - want) <= 1e-10

    def test_purely_imaginary_argument_gives_real_value(self):
        tau = sr.SiegelPoint(1.1j, 0.2j, 1.4j)
        for m in sr.all_characteristics():
            assert abs(sr.theta_constant(m, tau, 1e-10).value.imag) <= 1e-13

    def test_matches_naive_sum(self):
        tau = sr.SiegelPoint(0.17 + 1.05j, -0.23 + 0.11j, 0.41 + 1.21j)
        for m in sr.even_characteristics()[:4]:
            tv = sr.theta_constant(m, tau, 1e-8)
            assert tv.error_bound <= 1e-8
            assert abs(tv.value - theta_2d_naive(m.bits, tau.matrix)) <= tv.error_bound

    def test_unit_factor_periodicity(self):
        # Theta_m(tau + 2B) = i^(a1 B11 + 2 a1 a2 B12 + a2 B22) Theta_m(tau)
        # with the a-bits; a plain "period 2" identity holds only after
        # taking fourth powers.
        rng = np.random.default_rng(33)
        tau = sr.SiegelPoint(0.1 + 1.2j, 0.2 + 0.3j, -0.3 + 1.5j)
        for _ in range(6):
            b = rng.integers(-2, 3, size=(2, 2))
            b[1, 0] = b[0, 1]
            shifted = sr.SiegelPoint.from_matrix(tau.matrix + 2 * b)
            for m in sr.all_characteristics():
                a1, a2 = m.bits[0], m.bits[1]
                factor = 1j ** ((a1 * b[0, 0] + 2 * a1 * a2 * b[0, 1] + a2 * b[1, 1]) % 4)
                lhs = sr.theta_constant(m, shifted, 1e-10).value
                rhs = factor * sr.theta_constant(m, tau, 1e-10).value
                assert abs(lhs - rhs) <= 2e-10

    def test_fourth_power_period_two(self):
        tau = sr.SiegelPoint(0.1 + 1.2j, 0.2 + 0.3j, -0.3 + 1.5j)
        shifted = sr.SiegelPoint.from_matrix(tau.matrix + 2 * np.array([[1, 0], [0, 1]]))
        v1 = sr.theta_fourth_vector(tau)
        v2 = sr.theta_fourth_vector(shifted)
        assert np.max(np.abs(v1 - v2)) <= 2e-8

    def test_refining_tolerance_is_consistent(self):
        tau = sr.SiegelPoint(0.3 + 0.9j, 0.1 + 0.2j, -0.2 + 1.3j)
        for m in sr.even_characteristics()[:3]:
            coarse = sr.theta_constant(m, tau, 1e-6).value
            fine = sr.theta_constant(m, tau, 1e-7).value
            assert abs(coarse - fine) <= 1e-6

    def test_accepts_raw_matrix(self):
        m = sr.even_characteristics()[0]
        tv = sr.theta_constant(m, 1j * np.eye(2))
        want = theta_1d(0, 0, 1j) ** 2
        assert abs(tv.value - want) <= 1e-10


class TestFourthVector:
    def test_product_point_vanishing_pattern(self):
        v = sr.theta_fourth_vector(sr.SiegelPoint(1j, 0, 1j), 1e-12)
        mags = np.abs(v)
        assert mags[9] <= 1e-12          # characteristic ((1/2,1/2),(1/2,1/2))
        assert np.min(mags[:9]) >= 0.4   # all other coordinates stay far from zero

    def test_generic_point_no_vanishing(self):
        for tau in sr.sample_reduced_points(5, seed=41):
            mags = np.abs(sr.theta_fourth_vector(tau))
            assert np.min(mags) > 1e-6 * np.max(mags)

    def test_default_order_matches_even_characteristics(self):
        tau = sr.SiegelPoint(0.2 + 1.0j, 0.1 + 0.25j, -0.1 + 1.2j)
        v = sr.theta_fourth_vector(tau, 1e-10)
        for i, m in enumerate(sr.even_characteristics()):
            assert abs(v[i] - sr.theta_constant(m, tau, 1e-12).value ** 4) <= 1e-9

    def test_matches_double_loop_oracle(self):
        tol = 1e-8
        for tau in small_y_points():
            got = sr.theta_fourth_vector(tau, tol)
            assert np.max(np.abs(got - naive_fourth_powers(tau.matrix, radius=45))) <= tol

    @pytest.mark.parametrize("y", [1e-60, 1e-120])
    def test_tiny_imaginary_part_hits_the_cap(self, y):
        # at 1e-120 the inner tolerance tol / (4 U^3) underflows to 0
        with pytest.raises(sr.ResourceLimitError):
            sr.theta_fourth_vector(sr.SiegelPoint(y * 1j, 0, y * 1j))

    def test_slabs_match_one_slab(self, monkeypatch):
        tau = small_y_points()[1]
        whole = sr.theta_fourth_vector(tau)
        monkeypatch.setattr(theta, "_SLAB_TERMS", 7)
        sliced = sr.theta_fourth_vector(tau)
        assert np.max(np.abs(sliced - whole)) <= 1e-13 * np.max(np.abs(whole))
