import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import siegel_runge as sr
from siegel_runge import theta
from siegel_runge.theta import Characteristic

from oracles import (
    EVEN_BITS,
    half_box_columns,
    half_box_mass_outside,
    jacobi_fourth_powers,
    naive_fourth_powers,
    plain_truncation_radii,
    tail_abs_sum,
    theta_1d,
    theta_2d_disk,
    theta_2d_naive,
    theta_2d_symmetric,
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


def cut_points():
    """Two reduced points, two skewed level-2 images (y_min 0.016 and 0.019),
    y I and the near-singular diag(0.05 i, 2.5 i), with real parts."""
    return (list(sr.sample_reduced_points(2, seed=81)) + small_y_points()[1:]
            + [sr.SiegelPoint(0.2 + 0.35j, 0, -0.1 + 0.35j), sr.SiegelPoint(0.1 + 0.05j, 0, 0.3 + 2.5j)])


def disk_norm(r, y_min, budget):
    """S = log(2N / budget) / (pi y_min), N = (2r + 2)(4r + 3) the half-box columns."""
    return math.log(2 * (2 * r + 2) * (4 * r + 3) / budget) / (math.pi * y_min)


def disk(tau, tol):
    """The radius R whose tail bound meets tol, that tail, and the S of
    disk_norm for the budget tol - tail left to the cut."""
    y = tau.min_imag_eigenvalue()
    r = sr.truncation_radius(y, tol)
    tail = sr.tail_bound(r, y)
    return r, tail, disk_norm(r, y, tol - tail)


def disk_columns(r, s):
    """The half-box columns v with |v|^2 <= s, counted on 2v."""
    i, j = np.meshgrid(np.arange(2 * r + 2), np.arange(-2 * r - 1, 2 * r + 2))
    return int(np.count_nonzero(i * i + j * j <= 4 * s))


class TestCharacteristics:
    def test_parity_examples(self):
        assert Characteristic((0, 0, 0, 0)).is_even
        assert not Characteristic((1, 0, 1, 0)).is_even

    def test_counts(self):
        assert len(sr.all_characteristics()) == 16
        assert len(sr.even_characteristics()) == 10
        assert len(sr.odd_characteristics()) == 6

    def test_even_ordering(self):
        evens = sr.even_characteristics()
        assert evens[0].bits == (0, 0, 0, 0)
        assert evens[-1].bits == (1, 1, 1, 1)
        assert list(evens) == sorted(evens)

    def test_bits_are_the_only_way_in(self):
        # bit 1 stands for 1/2: this is a = (1/2, 0), b = (0, 1/2)
        m = Characteristic((1, 0, 0, 1))
        assert m.bits == (1, 0, 0, 1) and m.is_even and str(m) == "1001"
        assert not hasattr(m, "a") and not hasattr(m, "b") and not hasattr(Characteristic, "from_halves")

    @pytest.mark.parametrize("bits", [(0, 0, 0, 2), (0.5, 0, 0, 0), (0, 0, 0), (0, 0, 0, 0, 0)],
                             ids=["two", "half-as-value", "three-bits", "five-bits"])
    def test_validation(self, bits):
        with pytest.raises(sr.InvalidInputError):
            Characteristic(bits)

    @pytest.mark.parametrize("bits", [None, 5], ids=["none", "int"])
    def test_bits_must_be_a_sequence(self, bits):
        # None raised a bare TypeError from len()
        with pytest.raises(sr.InvalidInputError):
            Characteristic(bits)
        assert Characteristic(x for x in (1, 0, 0, 1)) == Characteristic((1, 0, 0, 1))


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

    @pytest.mark.parametrize("call", [lambda: sr.tail_bound(3, math.nan), lambda: sr.truncation_radius(math.nan, 1e-10),
                                      lambda: sr.tail_bound(2.5, 1.0), lambda: sr.tail_bound(math.inf, 1.0)],
                             ids=["nan-tail", "nan-radius", "fractional-radius", "infinite-radius"])
    def test_nan_and_fractional_inputs_refused(self, call):
        # tail_bound(3, nan) gave nan, truncation_radius(nan, 1e-10) claimed it
        # needed a radius past the cap, and tail_bound(2.5, 1.0) summed a box
        # no kernel sums
        with pytest.raises(sr.InvalidInputError):
            call()

    def test_resource_cap(self):
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(1e-9, 1e-10)

    def test_refusal_needs_no_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(theta, "_tail", lambda *args: calls.append(args) or 1.0)
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(1e-9, 1e-10)
        assert calls == []

    def test_search_starts_near_the_answer(self, monkeypatch):
        # the plain start at the leading factor made 663 calls here
        calls = []
        bound = theta._tail
        monkeypatch.setattr(theta, "_tail", lambda *args: calls.append(args) or bound(*args))
        sr.truncation_radius(1e-6, 1e-8)
        assert len(calls) <= 40

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
    # Re tau2 and Im tau2 both nonzero; at radius 2 the terms on the edge of
    # the box are 1e-7 or more, far above rounding, so a wrong weight or a
    # missing row or column shows in the even sums
    TAU = sr.SiegelPoint(0.17 + 0.75j, -0.23 + 0.21j, 0.41 + 0.85j)
    RADIUS = 2

    def assert_matches_double_loop(self, tau=TAU, radius=RADIUS):
        # the kernel sums the even characteristics; an odd one is exactly 0
        chars = sr.all_characteristics()
        even = dict(zip(sr.even_characteristics(), theta._even_sums(tau, radius)))
        got = np.array([even.get(m, 0.0) for m in chars])
        want = np.array([theta_2d_symmetric(m.bits, tau.matrix, radius) for m in chars])
        scale = np.max(np.abs(want))
        # the loop knows nothing of the pairing: its odd sums cancel to rounding
        assert max(abs(w) for m, w in zip(chars, want) if not m.is_even) <= 1e-13 * scale
        assert min(abs(w) for m, w in zip(chars, want) if m.is_even) > 1e-2
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def refuse_cache(self, monkeypatch, fused_radius):
        """Cap the cache below the radii summed, and make any use of it fail."""
        monkeypatch.setattr(theta, "_FUSED_RADIUS", fused_radius)
        monkeypatch.setattr(theta, "_fused", None)

    def test_all_sixteen_match_double_loop(self):
        self.assert_matches_double_loop()

    def test_even_cells_within_the_tail_of_the_integer_box(self):
        # the box grew from max|n_i| <= R by terms of the tail beyond it
        sums = theta._even_sums(self.TAU, self.RADIUS)
        bound = sr.tail_bound(self.RADIUS, self.TAU.min_imag_eigenvalue())
        for m, got in zip(sr.even_characteristics(), sums):
            assert abs(got - theta_2d_naive(m.bits, self.TAU.matrix, self.RADIUS)) <= bound

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_slab_boundaries_inside_both_halves(self, monkeypatch, rows):
        # with the cache capped below the radius, rows v1 = 0, 1, 2, 1/2, 3/2,
        # 5/2 (2r + 2 of them) against 4r + 3 columns go in slabs; slabs of 2
        # rows end at 2 and 4, one inside each half, and one slab of 7 rows
        # holds them all
        v, _, _, w, _, _ = theta._axis(self.RADIUS)
        assert list(w) == [0.0, 1.0, 2.0, 0.5, 1.5, 2.5]
        assert v.size == 4 * self.RADIUS + 3
        self.refuse_cache(monkeypatch, self.RADIUS - 1)
        monkeypatch.setattr(theta, "_SLAB_TERMS", rows * v.size)
        self.assert_matches_double_loop()

    def test_radius_past_the_cache_in_slabs(self, monkeypatch):
        # Im(TAU) over 40: the edge terms at radius 17 are 1e-7 or more.
        # Slabs of 7 of the 36 rows end at 7 and 14 inside the integer half
        # (18 rows) and at 21, 28 and 35 inside the half-integer one.
        entries = self.TAU.tau1, self.TAU.tau2, self.TAU.tau4
        tau = sr.SiegelPoint(*(complex(z.real, z.imag / 40) for z in entries))
        radius = theta._FUSED_RADIUS + 1
        self.refuse_cache(monkeypatch, theta._FUSED_RADIUS)
        monkeypatch.setattr(theta, "_SLAB_TERMS", 7 * (4 * radius + 3))
        self.assert_matches_double_loop(tau, radius)

    def test_cached_axis_is_linear_in_radius(self):
        r = 30
        assert sum(a.nbytes for a in theta._axis(r)) <= 64 * (2 * r + 1) * 16
        assert theta._axis.cache_info().maxsize is not None

    def test_fused_cache_is_read_only_and_capped(self, monkeypatch):
        assert theta._FUSED_RADIUS == 16
        assert theta._fused.cache_info().maxsize == theta._FUSED_RADIUS
        q, k, _ = theta._fused(3)
        assert q.shape == (3, 8 * 15) and k.shape == (10, 8 * 15)
        assert not q.flags.writeable and not k.flags.writeable
        cached = []
        fused = theta._fused
        monkeypatch.setattr(theta, "_fused", lambda r: cached.append(r) or fused(r))
        # theta_constant sums at tau for any radius; only those up to the cap
        # reach the cache
        far = scaled(0.01)
        assert sr.truncation_radius(far.min_imag_eigenvalue(), 1e-10) > theta._FUSED_RADIUS
        sr.theta_constant(sr.even_characteristics()[0], far, 1e-10)
        assert cached == []
        for radius in range(1, theta._FUSED_RADIUS + 1):
            tau = scaled(scale_for_radius(radius, TestRoute.TOL))
            got = sr.theta_fourth_vector(tau, TestRoute.TOL)
            want = np.array([sr.theta_constant(m, tau, direct_tolerance(tau, TestRoute.TOL)).value ** 4
                             for m in sr.even_characteristics()])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert sorted(set(cached)) == list(range(1, theta._FUSED_RADIUS + 1))
        assert fused.cache_info().currsize <= theta._FUSED_RADIUS


class TestCut:
    @pytest.mark.parametrize("budget", [1e-14, 1e-10, 1e-6])
    def test_prefix_within_the_budget_of_the_box(self, budget):
        for tau in cut_points():
            y = tau.min_imag_eigenvalue()
            r = sr.truncation_radius(y, budget)
            s = disk_norm(r, y, budget)
            level = theta._cut(r, y, budget)
            assert level == min(math.floor(4 * s), 2 * (2 * r + 1) ** 2)
            box = theta._even_sums(tau, r)
            assert np.max(np.abs(theta._even_sums(tau, r, level) - box)) <= budget
            assert half_box_mass_outside(tau.matrix.imag, r, s) <= budget

    @pytest.mark.parametrize("budget", [1e-14, 1e-6])
    def test_prefix_matches_the_disk_double_loop(self, budget):
        # the cached radii sum a prefix
        for tau in cut_points()[:2] + cut_points()[4:]:
            y = tau.min_imag_eigenvalue()
            r = sr.truncation_radius(y, budget)
            assert r <= theta._FUSED_RADIUS
            s = disk_norm(r, y, budget)
            got = theta._even_sums(tau, r, theta._cut(r, y, budget))
            want = np.array([theta_2d_disk(bits, tau.matrix, r, s) for bits in EVEN_BITS])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_zero_budget_sums_the_whole_box(self):
        for r in (1, 4, theta._FUSED_RADIUS + 1):
            assert theta._cut(r, 0.5, 0.0) == 2 * (2 * r + 1) ** 2
        tau = cut_points()[0]
        assert np.array_equal(theta._even_sums(tau, 3, theta._cut(3, 1.0, 0.0)), theta._even_sums(tau, 3))

    def test_cache_sorted_by_norm_with_its_count_table(self):
        for r in (1, 2, 5, theta._FUSED_RADIUS):
            q, k, count = theta._fused(r)
            assert not (q.flags.writeable or k.flags.writeable or count.flags.writeable)
            norm = np.rint(4 * (q[0].imag + q[2].imag) / math.pi).astype(int)
            assert norm.size == (2 * r + 2) * (4 * r + 3)
            assert np.all(np.diff(norm) >= 0)
            assert np.array_equal(count, [np.count_nonzero(norm <= j) for j in range(2 * (2 * r + 1) ** 2 + 1)])
            # every term of the half box, each once
            assert not (np.any(q.real) or np.any(k.imag))
            assert (sorted(map(tuple, np.vstack([q.imag, k.real]).T.tolist()))
                    == sorted(half_box_columns(r)))
        assert theta._fused.cache_info().maxsize == theta._FUSED_RADIUS


class TestThetaConstant:
    @pytest.mark.parametrize("m", [(0, 0, 0, 0), "0000", None], ids=["tuple", "string", "none"])
    def test_characteristic_required(self, m):
        # a bits tuple once raised AttributeError: 'tuple' object has no attribute 'is_even'
        with pytest.raises(sr.InvalidInputError):
            sr.theta_constant(m, sr.SiegelPoint(1j, 0, 1j))

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_diagnostics_report_the_sum(self, tol):
        even, odd = sr.even_characteristics()[3], sr.odd_characteristics()[0]
        for tau in cut_points():
            r, tail, s = disk(tau, tol)
            n = (2 * r + 2) * (4 * r + 3)
            tv = sr.theta_constant(even, tau, tol)
            assert tv.radius == r
            assert tail <= tv.error_bound <= tol
            assert abs(tv.value - theta_2d_naive(even.bits, tau.matrix, r + 8)) <= tv.error_bound
            if r <= theta._FUSED_RADIUS:
                # the columns of the disk, and the bound covers what is left out
                assert tv.terms == disk_columns(r, s) < n
                assert half_box_mass_outside(tau.matrix.imag, r, s) <= tv.error_bound - tail
            else:
                # the whole half box, so nothing is dropped
                assert tv.terms == n and tv.error_bound == tail
            assert sr.theta_constant(odd, tau, tol) == sr.ThetaValue(0j, tail, r, 0)

    def test_odd_vanish(self):
        for tau in sr.sample_reduced_points(5, seed=31):
            for m in sr.odd_characteristics():
                assert sr.theta_constant(m, tau, 5e-13).value == 0

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

    @pytest.mark.parametrize("tol", [1e-8, 1e-4])
    def test_cut_sums_meet_the_tolerance(self, tol):
        # summed at tau with the cut; the skewed points are the oracle test's above
        for tau in cut_points()[:2] + cut_points()[4:]:
            got = sr.theta_fourth_vector(tau, tol)
            y = tau.min_imag_eigenvalue()
            r = sr.truncation_radius(y, theta._fourth_inner_tol(y, tol))
            assert r <= theta._ROUTE_RADIUS
            assert np.max(np.abs(got - naive_fourth_powers(tau.matrix, radius=r + 8))) <= tol

    @pytest.mark.parametrize("y", [1e-60, 1e-120])
    def test_tiny_imaginary_part_hits_the_cap(self, y):
        # diag(iy, iy) goes through J to diag(i/y, i/y); by Jacobi the fourth
        # powers are y^-4 where b = 0 and vanish elsewhere.  The cap left is
        # det(tau)^2 = y^4, which underflows at 1e-120
        tau = sr.SiegelPoint(y * 1j, 0, y * 1j)
        if y ** 4 == 0.0:
            with pytest.raises(sr.ResourceLimitError):
                sr.theta_fourth_vector(tau)
            return
        want = jacobi_fourth_powers(y, y)
        assert [bits for bits, w in zip(EVEN_BITS, want) if w] == [
            bits for bits in EVEN_BITS if bits[2:] == (0, 0)]
        got = sr.theta_fourth_vector(tau)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tol_above_one_half_sums_as_one_half(self):
        # the route clamps its tolerance at 1/2; the direct sum at tau used to
        # refuse any tol of 1 or more
        tau = sr.SiegelPoint(100j, 0, 100j)
        got = sr.theta_fourth_vector(tau, tol=10.0)
        assert np.array_equal(got, sr.theta_fourth_vector(tau, tol=0.5))
        assert np.max(np.abs(got - jacobi_fourth_powers(100.0, 100.0))) <= 0.5

    def test_slabs_match_one_slab(self, monkeypatch):
        # summed at tau, past the cached radii
        force_route(monkeypatch, False)
        tau = small_y_points()[1]
        whole = sr.theta_fourth_vector(tau)
        monkeypatch.setattr(theta, "_SLAB_TERMS", 7)
        sliced = sr.theta_fourth_vector(tau)
        assert np.max(np.abs(sliced - whole)) <= 1e-13 * np.max(np.abs(whole))


def force_route(monkeypatch, route: bool):
    """Send every later theta_fourth_vector call through the fundamental
    domain (route=True) or sum every box at tau itself (route=False)."""
    monkeypatch.setattr(theta, "_ROUTE_RADIUS", 0 if route else theta._MAX_RADIUS)


def direct_tolerance(tau, tol):
    """tol / (4 U^3): a theta constant this close gives its fourth power within tol."""
    u = (1.0 + tau.min_imag_eigenvalue() ** -0.5) ** 2
    return tol / (4.0 * u ** 3)


def riemann_residual(v):
    """Riemann's relations 0000 = 0001 + 0100 + 1111 and 0000 = 0010 + 1000 + 1111,
    relative to max|v|."""
    i = {bits: k for k, bits in enumerate(EVEN_BITS)}
    first = v[i[0, 0, 0, 0]] - v[i[0, 0, 0, 1]] - v[i[0, 1, 0, 0]] - v[i[1, 1, 1, 1]]
    second = v[i[0, 0, 0, 0]] - v[i[0, 0, 1, 0]] - v[i[1, 0, 0, 0]] - v[i[1, 1, 1, 1]]
    return max(abs(first), abs(second)) / np.max(np.abs(v))


#: J, the three elementary translations and the GL2 swap and shear.
GENERATORS = (sr.J, sr.translation([[1, 0], [0, 0]]), sr.translation([[0, 1], [1, 0]]),
              sr.translation([[0, 0], [0, 1]]), sr.gl2_embedding([[0, 1], [1, 0]]),
              sr.gl2_embedding([[1, 1], [0, 1]]))


def mod2_key(m) -> int:
    """The 16 entries of m mod 2, row-major, read as a binary number."""
    return int("".join(str(int(x)) for x in (np.asarray(m) % 2).ravel()), 2)


def rho_matrix(perm, sign) -> np.ndarray:
    """R with theta^4(M tau) = det(C tau + D)^2 R theta^4(tau), from the pair
    of theta._rho, which undoes R: theta^4(tau) = sign * theta^4(M tau)[perm] / det^2."""
    r = np.zeros((10, 10))
    r[perm, np.arange(10)] = sign
    return r


def class_representatives() -> list:
    """One integer matrix of each class of Sp4(Z) mod 2, by breadth-first
    search over words in GENERATORS."""
    ident = sr.SymplecticMatrix(np.eye(4, dtype=int))
    reps = {mod2_key(ident.mat): ident}
    queue = [ident]
    for m in queue:
        for g in GENERATORS:
            gm = g @ m
            if mod2_key(gm.mat) not in reps:
                reps[mod2_key(gm.mat)] = gm
                queue.append(gm)
    return list(reps.values())


#: A reduced point whose imaginary part the gate tests scale down.
GATE_BASE = sr.SiegelPoint(0.11 + 1.05j, 0.23 + 0.31j, -0.17 + 1.22j)


def scaled(s):
    """GATE_BASE with Im(tau) scaled by s."""
    entries = (GATE_BASE.tau1, GATE_BASE.tau2, GATE_BASE.tau4)
    return sr.SiegelPoint(*(complex(z.real, s * z.imag) for z in entries))


def scaled_radius(s, tol):
    """The direct box radius of theta_fourth_vector at scaled(s)."""
    y = scaled(s).min_imag_eigenvalue()
    return sr.truncation_radius(y, theta._fourth_inner_tol(y, tol))


def scale_for_radius(radius, tol):
    """A scale s with scaled_radius(s, tol) == radius, by bisection in log s."""
    lo, hi = 1e-3, 1e3
    while (r := scaled_radius(math.sqrt(lo * hi), tol)) != radius:
        lo, hi = (math.sqrt(lo * hi), hi) if r > radius else (lo, math.sqrt(lo * hi))
    return math.sqrt(lo * hi)


def c06_inputs():
    """The points gamma.tau of acceptance check c06."""
    rng = np.random.default_rng(6)
    taus = sr.sample_reduced_points(5, seed=3)
    return [sr.act(sr.random_level2_matrix(rng), tau) for _ in range(20) for tau in taus]


def rho(m):
    """rho of a SymplecticMatrix, from its rows mod 2 as the route passes them."""
    return theta._rho(tuple(tuple(x & 1 for x in row) for row in m.rows))


class TestRhoTable:
    def test_720_classes(self):
        # distinct signed permutations on the 720 classes, read off M mod 2 only
        reps = class_representatives()
        seen = set()
        for g in reps:
            r = rho_matrix(*rho(g))
            assert np.array_equal(rho_matrix(*theta._rho(g.rows)), r)
            seen.add(r.tobytes())
        assert len(seen) == 720 == len(reps)

    def test_homomorphism(self):
        for h in class_representatives():
            r = rho_matrix(*rho(h))
            for g in GENERATORS:
                rg = rho_matrix(*rho(g))
                assert np.array_equal(rho_matrix(*rho(g @ h)), rg @ r)
                assert np.array_equal(rho_matrix(*rho(h @ g)), r @ rg)

    def test_transitive_on_even_characteristics(self):
        assert {int(rho(g)[0][0]) for g in class_representatives()} == set(range(10))

    def test_permutation_is_the_characteristic_action(self):
        # M.m = (D a - C b, -B a + A b) + 1/2 diag(C D^t, A B^t) mod 1, on the numerators 2m
        index = {bits: k for k, bits in enumerate(EVEN_BITS)}
        for g in class_representatives():
            perm = rho(g)[0]
            m = np.array(g.rows)
            a, b, c, d = m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]
            for k, bits in enumerate(EVEN_BITS):
                x, y = np.array(bits[:2]), np.array(bits[2:])
                image = np.concatenate([d @ x - c @ y + np.diag(c @ d.T),
                                        -b @ x + a @ y + np.diag(a @ b.T)]) % 2
                assert perm[k] == index[tuple(image.tolist())]

    def test_import_builds_no_table(self):
        code = "import siegel_runge; from siegel_runge import theta; print(theta._rho.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "0"


class TestRoute:
    TOL = 1e-8

    def test_every_class_matches_the_direct_sum(self, monkeypatch):
        # theta_constant at tau never goes through the fundamental domain
        force_route(monkeypatch, True)
        for g in class_representatives():
            tau = sr.act(g, GATE_BASE)
            inner = direct_tolerance(tau, self.TOL)
            want = np.array([sr.theta_constant(m, tau, inner).value ** 4 for m in sr.even_characteristics()])
            got = sr.theta_fourth_vector(tau, self.TOL)
            assert np.max(np.abs(got - want)) <= 2 * self.TOL
            assert riemann_residual(got) <= 1e-9

    def test_c06_inputs_match_the_direct_sums(self, monkeypatch):
        for tau in c06_inputs():
            force_route(monkeypatch, True)
            routed = sr.theta_fourth_vector(tau, self.TOL)
            force_route(monkeypatch, False)
            direct = sr.theta_fourth_vector(tau, self.TOL)
            assert np.max(np.abs(routed - direct)) <= 1e-7 * np.max(np.abs(direct))
            assert riemann_residual(routed) <= 1e-9

    def test_agrees_across_the_gate(self, monkeypatch):
        # two points a rounding apart whose box radii straddle _ROUTE_RADIUS
        lo, hi = 1e-3, 1.0
        assert scaled_radius(lo, self.TOL) > theta._ROUTE_RADIUS >= scaled_radius(hi, self.TOL)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo * hi)
            if not lo < mid < hi:
                mid = math.nextafter(lo, hi)
            lo, hi = (mid, hi) if scaled_radius(mid, self.TOL) > theta._ROUTE_RADIUS else (lo, mid)
        below, above = scaled(hi), scaled(lo)
        reductions = []
        reduce = theta.reduce_to_fundamental_domain
        monkeypatch.setattr(theta, "reduce_to_fundamental_domain", lambda t: reductions.append(t) or reduce(t))
        got_below = sr.theta_fourth_vector(below, self.TOL)
        got_above = sr.theta_fourth_vector(above, self.TOL)
        assert reductions == [above]
        assert np.max(np.abs(got_below - got_above)) <= 2 * self.TOL
        force_route(monkeypatch, True)
        assert np.max(np.abs(got_below - sr.theta_fourth_vector(below, self.TOL))) <= 2 * self.TOL
        force_route(monkeypatch, False)
        assert np.max(np.abs(got_above - sr.theta_fourth_vector(above, self.TOL))) <= 2 * self.TOL

    def test_sums_at_the_reduced_point(self, monkeypatch):
        # the route sums at the reduction's own reduced point
        force_route(monkeypatch, True)
        summed = []
        sums = theta._even_sums
        monkeypatch.setattr(theta, "_even_sums", lambda q, *args: summed.append(q) or sums(q, *args))
        for tau in small_y_points():
            summed.clear()
            sr.theta_fourth_vector(tau, self.TOL)
            assert summed == [sr.reduce_to_fundamental_domain(tau).reduced]
        assert "_act_entries" not in inspect.getsource(theta)

    def test_reduced_points_sum_directly(self, monkeypatch):
        monkeypatch.setattr(theta, "reduce_to_fundamental_domain", None)
        for tau in sr.sample_reduced_points(50, seed=72):
            sr.theta_fourth_vector(tau)

    def test_gate_adds_no_tail_bound_call(self, monkeypatch):
        # radii from 3 up to the gate, all summed at tau
        scales = (0.3, 0.1, 0.055)
        assert scaled_radius(scales[-1], self.TOL) == theta._ROUTE_RADIUS
        points = sr.sample_reduced_points(5, seed=73) + [scaled(s) for s in scales]
        calls = []
        bound = theta._tail
        monkeypatch.setattr(theta, "_tail", lambda *args: calls.append(args) or bound(*args))
        for tau in points:
            y = tau.min_imag_eigenvalue()
            sr.truncation_radius(y, theta._fourth_inner_tol(y, self.TOL))
            alone = len(calls)
            sr.theta_fourth_vector(tau, self.TOL)
            assert len(calls) == 2 * alone
            calls.clear()
