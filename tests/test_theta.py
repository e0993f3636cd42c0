import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import siegel_runge as sr
from siegel_runge import theta
from siegel_runge.theta import Characteristic

from oracles import (
    EVEN_BITS,
    duplication_squares,
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


#: The column counts of _fused's table: for every shift a and levels j < l,
#: at most ALPHA (l - j) + B columns of Theta_(a, 0) have j < 4|v|^2 <= l.
ALPHA, B = 0.5, 14.5


def disk_norm(y_min, budget):
    """S = t / 4 with t = g log(2 (ALPHA (1 + g) + B) / budget) and
    g = 4 / (pi y_min): past the disk |v|^2 <= S the terms of each b = 0
    sum total at most budget (the proof at theta._cut)."""
    g = 4.0 / (math.pi * y_min)
    return g * math.log(2.0 * (ALPHA * (1.0 + g) + B) / budget) / 4.0


def theta_bound(y):
    """1 + 2e / (1 - e^3), e = exp(-pi y), an upper bound for
    Theta(y) = sum over n of exp(-pi y n^2) as n^2 >= 3n - 2, taken at 1/y
    through Theta(y) = y^(-1/2) Theta(1/y) for y < 1."""
    z = y if y >= 1.0 else 1.0 / y
    e = math.exp(-math.pi * z)
    return (1.0 + 2.0 * e / (1.0 - e ** 3)) * (1.0 if y >= 1.0 else y ** -0.5)


@pytest.fixture
def reductions(monkeypatch):
    """The points that theta_fourth_vector sends through the fundamental domain, in order."""
    seen = []
    reduce = theta._reduce
    monkeypatch.setattr(theta, "_reduce", lambda *entries: seen.append(sr.SiegelPoint(*entries)) or reduce(*entries))
    return seen


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


def mp_tail_bound(radius, y_min):
    """s = radius + 1 - sqrt(2)/2 and the tail bound of theta.tail_bound, at 40 digits."""
    from mpmath import mp
    with mp.workdps(40):
        s = radius + 1 - mp.sqrt(2) / 2
        x = 2 * mp.pi * y_min * s
        q = -mp.expm1(-x)
        return s, 8 * mp.exp(-mp.pi * y_min * s * s) * ((radius + 1) / q + mp.exp(-x) / q / q)


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
        """The only killer of "refusal scans to the cap": by the lower bound
        proved at truncation_radius, a search that would start past the cap
        is refused without a tail bound."""
        calls = []
        monkeypatch.setattr(theta, "_tail", lambda *args: calls.append(args) or 1.0)
        with pytest.raises(sr.ResourceLimitError):
            sr.truncation_radius(1e-9, 1e-10)
        assert calls == []

    def test_search_starts_near_the_answer(self, monkeypatch):
        """The only killer of "search from radius 1": the search starts at
        the lower bound proved at truncation_radius."""
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

    def test_search_start_keeps_every_radius_at_tiny_tolerances(self):
        # below tol 1e-304 the leading factor 8 / tol leaves the double range
        assert sr.truncation_radius(1.0, 1e-310) == 15
        assert sr.truncation_radius(0.05, 1e-310) == 68
        tols = [float(t) for t in np.geomspace(5e-324, 1e-290, 40)]
        for y_min in np.geomspace(1e-6, 1e3, 60):
            got = []
            for tol in tols:
                try:
                    got.append(sr.truncation_radius(float(y_min), tol))
                except sr.ResourceLimitError:
                    got.append(None)
            assert got == plain_truncation_radii(sr.tail_bound, float(y_min), tols)

    @pytest.mark.parametrize("radius, y_min", [(2**1000, 5e-324), (2**1100, 1.0), (2**1100, 5e-324)],
                             ids=["2^1000-tiny", "2^1100-unit", "2^1100-tiny"])
    def test_bound_underflows_at_huge_radii(self, radius, y_min):
        # exp(-pi y_min s^2) underflows where (r + 1) / q overflows, and past
        # 2^1024 s is no float
        assert sr.tail_bound(radius, y_min) == 0.0

    @pytest.mark.parametrize("radius, y_min", [(1541 * 10**148, 1e-300), (155 * 10**150, 1e-302)],
                             ids=["1e-300", "1e-302"])
    def test_bound_survives_an_underflowed_exponential(self, radius, y_min):
        # exp(-pi y_min s^2) underflows to 0 here, but the factor (r + 1) / q,
        # near 1 / (2 pi y_min), lifts the bound to near 1e-24
        s, want = mp_tail_bound(radius, y_min)
        assert math.exp(-math.pi * y_min * float(s) ** 2) == 0.0
        assert sr.tail_bound(radius, y_min) == pytest.approx(float(want), rel=1e-9, abs=0.0)
        assert float(want) > 1e-27

    def test_bound_keeps_the_bits_of_a_subnormal_ymin(self):
        # at y_min = 2e-323 = 4 * 2^-1074 the product pi y_min rounds to
        # 13 * 2^-1074, 3.5% high, and the bound came out 1e-15 of itself
        radius, y_min = int(4.013e162), 2e-323
        _, want = mp_tail_bound(radius, y_min)
        assert sr.tail_bound(radius, y_min) == pytest.approx(float(want), rel=1e-9, abs=0.0)
        assert float(want) > 1e-112

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


#: The shifts c of the four b = 0 constants at 2 tau, in the duplication formula's order.
B0_SHIFTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def entries(tau, factor=1.0):
    """The entries (tau1, tau2, tau4) of factor * tau / 2, which the cut
    kernel reads to sum at factor * tau."""
    h = factor / 2.0
    return np.array((h * tau.tau1, h * tau.tau2, h * tau.tau4))


class TestKernel:
    def test_duplication_oracle_gives_the_squares(self):
        # theta_m(tau)^2 from four double loops at 2 tau against the squared
        # double loop at tau: reduced, skewed, y I and a near-singular point
        for tau in cut_points():
            r = sr.truncation_radius(tau.min_imag_eigenvalue(), 1e-15)
            sums = {c: theta_2d_symmetric(c + (0, 0), 2.0 * tau.matrix, r) for c in B0_SHIFTS}
            want = np.array([theta_2d_symmetric(bits, tau.matrix, r) ** 2 for bits in EVEN_BITS])
            assert np.max(np.abs(duplication_squares(sums) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_cached_axis_is_linear_in_radius(self):
        """The only killer of "axis cache unbounded": theta_constant sums in
        O(r) memory (the slabs of _table), and so does the cache of _axis."""
        r = 30
        assert sum(a.nbytes for a in theta._axis(r)) <= 64 * (2 * r + 1) * 16
        assert theta._axis.cache_info().maxsize is not None

    def test_fused_cache_is_read_only_and_capped(self, monkeypatch):
        """At every radius up to the gate the direct path sums the disk of
        the level that _cut gives for the box at the gate radius and the
        inner tolerance less that box's tail bound (the proof at _b0_sums),
        which the double loops over the box at radius 17 reproduce to
        1e-13.  Scale 3.3 is near the edge of radius 1."""
        assert theta._fused.cache_info().maxsize == 1
        q, k, count = theta._fused()
        # one table, the half box at radius 17, in at most 0.3 MiB
        assert q.shape == (3, 36 * 71) and k.shape == (4, 36 * 71) and count.shape == (2 * 35 ** 2 + 1,)
        assert not q.flags.writeable and not k.flags.writeable and not count.flags.writeable
        assert sum(a.nbytes for a in (q, k, count)) <= 0.3 * 2**20
        cached = []
        fused = theta._fused
        monkeypatch.setattr(theta, "_fused", lambda: cached.append(1) or fused())
        # theta_constant sums its own kernel at every radius, the cached ones too
        near, far = scaled(1.0), scaled(0.01)
        assert (sr.truncation_radius(near.min_imag_eigenvalue(), 1e-10) <= theta._ROUTE_RADIUS
                < sr.truncation_radius(far.min_imag_eigenvalue(), 1e-10))
        for tau in (near, far):
            sr.theta_constant(sr.even_characteristics()[0], tau, 1e-10)
        assert cached == []
        assert scaled_radius(3.3, TestRoute.TOL) == 1
        for radius, scale in [(1, 3.3)] + [(r, scale_for_radius(r, TestRoute.TOL))
                                           for r in range(1, theta._ROUTE_RADIUS + 1)]:
            tau = scaled(scale)
            got = sr.theta_fourth_vector(tau, TestRoute.TOL)
            # the same four disk sums at 2 tau, from double loops, through the
            # duplication formula; _cut keeps at most the disk through the
            # corners of the box at the gate radius
            y2, inner = 2.0 * tau.min_imag_eigenvalue(), direct_tolerance(tau, TestRoute.TOL)
            gate = theta._ROUTE_RADIUS
            assert scaled_radius(scale, TestRoute.TOL) == radius <= gate
            s = min(disk_norm(y2, inner - sr.tail_bound(gate, y2)), (2 * gate + 1) ** 2 / 2)
            sums = {c: theta_2d_disk(c + (0, 0), 2.0 * tau.matrix, 17, s) for c in B0_SHIFTS}
            want = duplication_squares(sums) ** 2
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert len(cached) == theta._ROUTE_RADIUS + 1
        assert fused.cache_info().currsize == 1


class TestCut:
    @pytest.mark.parametrize("budget", [1e-14, 1e-6])
    def test_prefix_matches_the_disk_double_loop(self, budget):
        """The prefix kept is the disk |v|^2 <= S of disk_norm, past which
        the terms of each sum total at most the budget (the proof at _cut),
        at tau and at 2 tau.  The disk may pass the box at r but not the box
        at 17."""
        for tau in cut_points()[:2] + cut_points()[4:]:
            for factor in (1.0, 2.0):
                y = factor * tau.min_imag_eigenvalue()
                r = sr.truncation_radius(y, budget)
                assert r <= theta._DOMAIN_RADIUS
                s = disk_norm(y, budget)
                assert s < (2 * r + 1) ** 2 / 2
                got = theta._b0_sums(entries(tau, factor), theta._cut(r, y, budget))
                want = np.array([theta_2d_disk(c + (0, 0), factor * tau.matrix, 17, s) for c in B0_SHIFTS])
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-4.0, math.log10(50.0)), st.floats(-300.0, 1.0),
           st.sampled_from([theta._ROUTE_RADIUS, theta._DOMAIN_RADIUS]))
    def test_one_tail_test_decides_as_a_radius_scan(self, log_y2, log_tol, cap):
        """One tail bound, of the box at cap, decides what a scan of the
        radii 1 to cap decides, as the bound decreases in the radius, and
        the level is computed for that box and the inner tolerance less its
        tail bound: the columns past the level hold terms of each sum of
        at most 2 x^(level + 1) (ALPHA / (1 - x) + B) <= budget in all,
        x = exp(-pi y2 / 4), or the whole box is kept.  That
        level can be below the one the least radius that meets the inner
        tolerance gives: the tail of that radius can use up most of the
        inner tolerance and leave it a small budget."""
        y2, tol = 10.0 ** log_y2, 10.0 ** log_tol
        inner = theta._fourth_inner_tol(y2, min(tol, 0.5))
        routes = not inner > 0.0 or all(theta._tail(r, y2) > inner for r in range(1, cap + 1))
        seen = []
        cut = theta._cut
        with pytest.MonkeyPatch.context() as m:
            m.setattr(theta, "_cut", lambda *args: seen.append(args) or cut(*args))
            values = theta._fourth_powers(0.5j * y2, 0j, 0.5j * y2, 0.5 * y2, tol, cap)
        assert (values is None) == routes
        if routes:
            assert seen == []
            return
        budget = inner - theta._tail(cap, y2)
        assert seen == [(cap, y2, budget)]
        level = cut(*seen[0])
        bound = math.log(2.0 * (ALPHA / -math.expm1(-math.pi * y2 / 4.0) + B) / budget)
        assert level == 2 * (2 * cap + 1) ** 2 or math.pi * y2 * (level + 1) / 4.0 >= bound

    def test_zero_budget_sums_the_whole_box(self):
        """The only killer of "zero budget cuts to level 0": a tail bound equal
        to the inner tolerance leaves a budget of 0, and _cut then keeps the
        whole box."""
        for r in (1, 4, theta._ROUTE_RADIUS + 1):
            assert theta._cut(r, 0.5, 0.0) == 2 * (2 * r + 1) ** 2
        c = entries(cut_points()[0])
        assert np.array_equal(theta._b0_sums(c, theta._cut(3, 1.0, 0.0)), theta._b0_sums(c, 2 * (2 * 3 + 1) ** 2))

    def test_level_constants_come_from_the_table(self):
        """_LEVEL_EXCESS is the least b with C_a(l) - C_a(j) <= _LEVEL_SLOPE
        (l - j) + b for every shift a and all levels j < l, C_a(l) the
        columns of Theta_(a, 0) in _fused's table with 4|v|^2 <= l, and the
        two are the ALPHA and B of disk_norm.  A slope below the density
        pi / 8 of a shift class on the half plane would need a b that grows
        with the table: halved, it needs 206.75."""
        q, k, count = theta._fused()
        # 4|v|^2 = 4 (w^2 + v^2) of each column, read off its exponents 2 i pi (w^2, 2 w v, v^2)
        levels = np.rint(2.0 * (q[0] + q[2]).imag / math.pi).astype(int)
        assert np.array_equal(np.cumsum(np.bincount(levels)), count)
        least = -math.inf
        for row in k:
            f = np.cumsum(np.bincount(levels[row != 0], minlength=count.size)) - ALPHA * np.arange(count.size)
            least = max(least, float(np.max(f[1:] - np.minimum.accumulate(f)[:-1])))
        assert (theta._LEVEL_SLOPE, theta._LEVEL_EXCESS) == (ALPHA, B) == (ALPHA, least)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log10(0.03), math.log10(50.0)), st.floats(-14.0, math.log10(0.5)),
           st.sampled_from([theta._ROUTE_RADIUS, theta._DOMAIN_RADIUS]),
           st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.tuples(*[st.floats(-1.5, 1.5)] * 2))
    def test_cut_error_is_within_the_budget(self, log_y2, log_tol, cap, re, w):
        """Against the sum over the whole table, the box at 17, the columns
        past the level of _cut hold terms of each sum of at most the budget
        in all (the proof at _cut), at caps 14 and 17, for any Im(2c) =
        y2 I + w w^t of least eigenvalue at least y2; the cut sum is that
        close, up to the rounding of the sums.  A level at the top of the
        box at cap leaves out only terms past it, which the tail bound
        covers."""
        y2, tol = 10.0 ** log_y2, 10.0 ** log_tol
        inner = theta._fourth_inner_tol(y2, tol)
        tail = theta._tail(cap, y2)
        assume(tail <= inner)
        budget = inner - tail
        level = theta._cut(cap, y2, budget)
        im = y2 * np.eye(2) + np.outer(w, w)
        c = np.array([complex(re[0], im[0, 0]), complex(re[1], im[0, 1]), complex(re[2], im[1, 1])]) / 2.0
        q, k, count = theta._fused()
        terms = np.abs(k) * np.abs(np.exp(c @ q))
        left_out = terms[:, count.item(level):].sum(axis=1)
        allowed = budget if level < 2 * (2 * cap + 1) ** 2 else tail
        assert np.all(left_out <= allowed)
        error = np.abs(theta._b0_sums(c, count.size - 1) - theta._b0_sums(c, level))
        assert np.all(error <= allowed + 64 * sys.float_info.epsilon * terms.sum(axis=1))

    @pytest.mark.parametrize("y", [0.02, 0.3, 0.97, 1.0, 1.03, 1.7, 6.0])
    def test_theta_bound_against_mpmath(self, y):
        """The Theta(y) that _fourth_inner_tol(y, 1/2) = 1/2 / (64 Theta^6)
        divides by bounds both 1-D sums over n of exp(-pi y (n + a)^2),
        a = 0 and 1/2, on both sides of y = 1, and exceeds the one at a = 0
        by less than 1e-9 of it: without the Poisson branch it read 0.14%
        high at y = 0.3, and with e for e / (1 - e^3) it fell short."""
        from mpmath import mp
        got = (0.5 / 64.0 / theta._fourth_inner_tol(y, 0.5)) ** (1.0 / 6.0)
        assert got == pytest.approx(theta_bound(y), rel=1e-15)
        with mp.workdps(40):
            sums = [float(mp.nsum(lambda n: mp.exp(-mp.pi * y * (n + a) ** 2), [-mp.inf, mp.inf]))
                    for a in (0, mp.mpf(1) / 2)]
        assert sums[1] <= sums[0] <= got * (1.0 + 1e-15)
        assert got <= sums[0] * (1.0 + 1e-9)


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
            y = tau.min_imag_eigenvalue()
            r = sr.truncation_radius(y, tol)
            tail = sr.tail_bound(r, y)
            tv = sr.theta_constant(even, tau, tol)
            assert tv.radius == r
            assert tail <= tv.error_bound <= tol
            assert abs(tv.value - theta_2d_naive(even.bits, tau.matrix, r + 8)) <= tv.error_bound
            # the whole half box at every radius, so nothing is dropped
            assert tv.terms == (2 * r + 2) * (4 * r + 3) and tv.error_bound == tail
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
    def test_cut_sums_meet_the_tolerance(self, reductions, tol):
        # summed at 2 tau with the cut, none routed; the skewed points are the
        # oracle test's above.  The double loop at tau runs 8 past the radius
        # whose tail meets u2_tolerance
        for tau in cut_points()[:2] + cut_points()[4:]:
            got = sr.theta_fourth_vector(tau, tol)
            r = sr.truncation_radius(tau.min_imag_eigenvalue(), u2_tolerance(tau, tol))
            assert np.max(np.abs(got - naive_fourth_powers(tau.matrix, radius=r + 8))) <= tol
        assert reductions == []

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

    def test_underflowed_tolerance_is_named(self):
        # at a reduced point det(C tau + D)^2 = 1: the tolerance itself underflows
        tau = sr.sample_reduced_points(1, seed=3)[0]
        with pytest.raises(sr.ResourceLimitError, match=r"^the tolerance 4\.9e-324 underflows at the reduced point"):
            sr.psi(tau, 5e-324)

    @pytest.mark.parametrize("shift", [1e9, 1e15, 8e307])
    def test_real_parts_taken_mod_two(self, shift):
        # the fourth powers have period 2 in every real entry.  Summed at
        # Re(tau1) as given, 1e9 missed by 2.8e-8 and 1e15 by 0.20, and at
        # 8e307 the exponent overflowed (a RuntimeWarning, an error here) and
        # psi refused the NaN coordinates
        tol = 1e-8
        want = sr.theta_fourth_vector(sr.SiegelPoint(1j, 0.1j, 1.2j), tol)
        for entries in [(shift + 1j, 0.1j, 1.2j), (1j, shift + 0.1j, 1.2j), (1j, 0.1j, shift + 1.2j),
                        (shift + 1j, -shift + 0.1j, shift + 1.2j)]:
            tau = sr.SiegelPoint(*entries)
            assert np.max(np.abs(sr.theta_fourth_vector(tau, tol) - want)) <= tol
            assert np.max(np.abs(sr.psi(tau, tol).coords - want)) <= tol


def direct_tolerance(tau, tol):
    """tol / (64 U^3), U = theta_bound(2 y_min)^2: the four b = 0 constants
    at 2 tau this close give the ten fourth powers within tol."""
    return tol / (64.0 * theta_bound(2.0 * tau.min_imag_eigenvalue()) ** 6)


def u2_tolerance(tau, tol):
    """tol / (64 U2^3), U2 = (1 + (2 y_min)^(-1/2))^2, at most
    direct_tolerance.  A theta constant at tau this close gives its own
    fourth power within tol, as 4 U^3 <= 32 U2^3 for U = (1 + y_min^(-1/2))^2
    <= 2 U2, the integral bound on the absolute series at tau."""
    u2 = (1.0 + (2.0 * tau.min_imag_eigenvalue()) ** -0.5) ** 2
    return tol / (64.0 * u2 ** 3)


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


#: The rows of the 4 x 4 identity.
IDENTITY_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

#: A reduced point whose imaginary part the gate tests scale down.
GATE_BASE = sr.SiegelPoint(0.11 + 1.05j, 0.23 + 0.31j, -0.17 + 1.22j)


def scaled(s):
    """GATE_BASE with Im(tau) scaled by s."""
    entries = (GATE_BASE.tau1, GATE_BASE.tau2, GATE_BASE.tau4)
    return sr.SiegelPoint(*(complex(z.real, s * z.imag) for z in entries))


def scaled_radius(s, tol):
    """The direct box radius of theta_fourth_vector at scaled(s), which it sums at 2 scaled(s)."""
    return scaled_radius_at(scaled(s), tol)


def scaled_radius_at(tau, tol):
    """The direct box radius of theta_fourth_vector at tau, which it sums at 2 tau."""
    return sr.truncation_radius(2.0 * tau.min_imag_eigenvalue(), direct_tolerance(tau, tol))


def scale_for_radius(radius, tol):
    """A scale s with scaled_radius(s, tol) == radius, by bisection in log s."""
    lo, hi = 1e-3, 1e3
    for _ in range(100):
        if (r := scaled_radius(math.sqrt(lo * hi), tol)) == radius:
            return math.sqrt(lo * hi)
        lo, hi = (math.sqrt(lo * hi), hi) if r > radius else (lo, math.sqrt(lo * hi))
    raise AssertionError(f"no scale in [1e-3, 1e3] gives radius {radius}")


def c06_inputs():
    """The pairs (gamma, tau) of acceptance check c06: gamma of level 2, tau reduced."""
    rng = np.random.default_rng(6)
    taus = sr.sample_reduced_points(5, seed=3)
    return [(sr.random_level2_matrix(rng), tau) for _ in range(20) for tau in taus]


def cocycle(g, tau) -> complex:
    """det(C tau + D) for g = [[A, B], [C, D]]."""
    _, _, c, d = g.blocks
    m = c @ tau.matrix + d
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def fourth_powers_at_tau(tau) -> np.ndarray:
    """The ten theta_constant(m, tau, 1e-15)^4, summed at tau itself."""
    return np.array([sr.theta_constant(m, tau, 1e-15).value ** 4 for m in sr.even_characteristics()])


class TestRhoTable:
    def test_import_builds_no_table(self):
        """The only killer of "rho built at import": _rho fills its cache on
        first use, so importing the package builds no table."""
        code = "import siegel_runge; from siegel_runge import theta; print(theta._rho.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "0"


class TestRoute:
    TOL = 1e-8

    def test_every_class_matches_the_level2_law(self, reductions):
        # L = [[I, 0], [8 I, I]] is of level 2, so theta^4(L tau) is
        # det(8 tau + I)^2 theta^4(tau), with no sign or permutation.  Each
        # L g GATE_BASE routes, through a witness of the class of g^-1 mod 2,
        # so the route reads rho on all 720 classes of Sp4(Z) mod 2
        lower = sr.SymplecticMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (8, 0, 1, 0), (0, 8, 0, 1)))
        witnesses = set()
        for g in class_representatives():
            tau = sr.act(g, GATE_BASE)
            det2 = cocycle(lower, tau) ** 2
            want = det2 * sr.theta_fourth_vector(tau, self.TOL / abs(det2))
            image = sr.act(lower, tau)
            got = sr.theta_fourth_vector(image, self.TOL)
            # each sum is within TOL of its value; the rest is the rounding of
            # L tau, which theta^4 carries over in proportion to its values:
            # at tol 1e-15 the two still differ by up to 6e-14 of max |want|
            assert np.max(np.abs(got - want)) <= 2 * self.TOL + 1e-12 * np.max(np.abs(want))
            # Riemann's relations are homogeneous and hold for the duplication
            # image of any four b = 0 sums.  Run without the comparison above,
            # this assert killed a swapped pair of rho, the affine term of the
            # characteristic action dropped, one coordinate scaled by 1 + 1e-6,
            # c + a -> c and an extra sign in _DUPLICATION, and no kernel or
            # radius fault, no global sign of rho, no term dropped from the
            # signs of rho and not det in place of det^2
            assert riemann_residual(got) <= 1e-9
            witnesses.add(mod2_key(sr.reduce_to_fundamental_domain(image).transform.mat))
        assert len(reductions) == len(witnesses) == 720

    def test_c06_inputs_meet_the_level2_law(self):
        # theta^4(gamma tau) = det(C tau + D)^2 theta^4(tau) for gamma of
        # level 2; 49 of these 100 images route
        for g, tau in c06_inputs():
            det2 = cocycle(g, tau) ** 2
            want = det2 * sr.theta_fourth_vector(tau, self.TOL / abs(det2))
            got = sr.theta_fourth_vector(sr.act(g, tau), self.TOL)
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))
            # run without the comparison above, this assert killed a swapped
            # pair of rho, one coordinate scaled by 1 + 1e-6 and c + a -> c in
            # _DUPLICATION, and no other mutant of the theta module
            assert riemann_residual(got) <= 1e-9

    def test_agrees_across_the_gate(self, reductions):
        # two points a rounding apart, the first summed at 2 tau and the second routed
        def routed(s):
            reductions.clear()
            sr.theta_fourth_vector(scaled(s), self.TOL)
            return bool(reductions)

        lo, hi = 1e-3, 1.0
        assert routed(lo) and not routed(hi)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo * hi)
            if not lo < mid < hi:
                mid = math.nextafter(lo, hi)
            lo, hi = (mid, hi) if routed(mid) else (lo, mid)
        below, above = scaled(hi), scaled(lo)
        # the gate is where the box radius at 2 tau for the inner tolerance steps
        assert scaled_radius(lo, self.TOL) == scaled_radius(hi, self.TOL) + 1
        reductions.clear()
        got_below = sr.theta_fourth_vector(below, self.TOL)
        got_above = sr.theta_fourth_vector(above, self.TOL)
        assert reductions == [above]
        assert np.max(np.abs(got_below - got_above)) <= 2 * self.TOL
        for tau, got in ((below, got_below), (above, got_above)):
            assert np.max(np.abs(got - fourth_powers_at_tau(tau))) <= self.TOL

    def test_within_tol_of_the_fourth_powers_at_tau(self, reductions):
        # the duplication at 2 tau against theta_constant at tau itself: every
        # doubled radius up to the gate and the first past it, then points
        # further past it, all of which route
        for radius in range(1, 40):
            tau = scaled(scale_for_radius(radius, self.TOL))
            assert np.max(np.abs(sr.theta_fourth_vector(tau, self.TOL) - fourth_powers_at_tau(tau))) <= self.TOL
            if reductions:
                break
        assert reductions and radius > 1
        # the last is a GL2 image that routes to the box at radius 1, where
        # the cut keeps level 6 and the top level of radius 0 is 2
        skewed = sr.act(sr.gl2_embedding([[1, 20], [0, 1]]), sr.SiegelPoint(0.1 + 2.7j, 0.05 + 0.1j, -0.2 + 2.8j))
        routed = [scaled(0.02)] + small_y_points()[1:] + [skewed]
        reductions.clear()
        for tau in routed:
            assert np.max(np.abs(sr.theta_fourth_vector(tau, self.TOL) - fourth_powers_at_tau(tau))) <= self.TOL
        assert reductions == routed

    def test_routed_images_agree_across_tolerances(self, reductions):
        # level-2 images of reduced points with Im(tau) scaled by 0.05, 0.01
        # and 0.003, one draw per point and scale; all but eight route.  The
        # route sums them to tol |det^2|, clamped at 1/2, so both tolerances
        # give the same vector here.  Summed at a route radius one too small
        # they missed each other by up to 1.7e-8, and with the tolerance not
        # scaled by |det^2| by up to 2.8e-4
        rng = np.random.default_rng(5)
        for p in sr.sample_reduced_points(30, seed=11):
            for s in (0.05, 0.01, 0.003):
                image = sr.act(sr.random_level2_matrix(rng), p)
                tau = sr.SiegelPoint(*(complex(z.real, s * z.imag) for z in (image.tau1, image.tau2, image.tau4)))
                reductions.clear()
                coarse, fine = sr.theta_fourth_vector(tau, 1e-8), sr.theta_fourth_vector(tau, 1e-11)
                assert np.max(np.abs(coarse - fine)) <= 1e-8
                assert reductions or s == 0.05

    @pytest.mark.parametrize("tol", [5e-324, 1e-310, 1e-300])
    def test_cut_kernel_radius_at_most_seventeen(self, monkeypatch, tol):
        """A reduced point has least eigenvalue >= y1 / 2 >= sqrt(3)/4, so
        the box at 2q needs radius 17 at most, even at the least inner
        tolerance (the proof at _fourth_through_domain), and the one table
        of _fused holds the whole box at 17: a table at radius 16 fails
        here.  The route sizes its cut for that box, so the level is
        computed at radius 17 for each routed point.  The image of the corner by
        [[I, 0], [2 I, I]] routes to a reduced point of least eigenvalue
        0.53, where a box sized for Im(q) would need radius 21 at 1e-300.
        At 1e-310 the corner itself needs radius 17 at 2q: a route capped
        at 16 refuses it."""
        assert theta._truncation(math.sqrt(3) / 2, 5e-324)[0] == 17
        assert theta._truncation(math.sqrt(3) / 2, 1e-300)[0] == 16
        assert theta._fused()[2][-1] == (2 * 17 + 2) * (4 * 17 + 3)
        corner = sr.SiegelPoint(0.5 + math.sqrt(3) / 2 * 1j, math.sqrt(3) / 4 * 1j, 0.5 + math.sqrt(3) / 2 * 1j)
        lower = sr.SymplecticMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 2, 0, 1)))
        if tol == 1e-310:
            inner = theta._fourth_inner_tol(2.0 * corner.min_imag_eigenvalue(), tol)
            assert theta._truncation(2.0 * corner.min_imag_eigenvalue(), inner)[0] == 17
        radii = []
        cut = theta._cut
        monkeypatch.setattr(theta, "_cut", lambda r, *args: radii.append(r) or cut(r, *args))
        for tau in [corner, sr.act(lower, corner)] + small_y_points():
            try:
                assert np.isfinite(sr.theta_fourth_vector(tau, tol)).all()
            except sr.ResourceLimitError:
                pass
        # at 5e-324 each inner tolerance underflows; from 1e-310 on every
        # point is summed, the reduced one of small_y_points directly, at
        # the gate radius, and the others through the domain, at 17
        assert radii == ([] if tol < 1e-320 else [17, 17, theta._ROUTE_RADIUS, 17, 17])

    def test_unreduced_route_point_is_refused(self, monkeypatch):
        """A route point whose box at 2q needs a radius past 17 is not
        reduced, which the proof at _fourth_through_domain rules out: an
        InconsistencyError, with no sum over a box the table does not hold.
        The identity witness maps the point to itself."""
        far = scaled(1e-3)
        monkeypatch.setattr(theta, "_reduce", lambda *entries: (IDENTITY_ROWS, 1))
        monkeypatch.setattr(theta, "_b0_sums", None)
        with pytest.raises(sr.InconsistencyError, match="past 17"):
            sr.theta_fourth_vector(far, self.TOL)

    def test_route_matches_the_public_reduction(self, reductions):
        """The route runs the reduction loop, _reduce, without the records of
        reduce_to_fundamental_domain.  On level-2 images that route and on
        scaled points from just past the gate down to Im scale 1e-4, its
        witness and passes are those of the public result, and its values
        are, bit for bit, those built from that result."""
        rng = np.random.default_rng(31)
        points = [scaled(s) for s in (0.032, 0.03, 0.01, 1e-3, 1e-4)]
        for p in sr.sample_reduced_points(8, seed=31):
            for s in (0.1, 0.02):
                image = sr.act(sr.random_level2_matrix(rng), p)
                tau = sr.SiegelPoint(*(complex(z.real, s * z.imag) for z in (image.tau1, image.tau2, image.tau4)))
                if scaled_radius_at(tau, self.TOL) > theta._ROUTE_RADIUS:
                    points.append(tau)
        assert len(points) >= 15
        for tau in points:
            reductions.clear()
            got = sr.theta_fourth_vector(tau, self.TOL)
            assert reductions == [tau]
            res = sr.reduce_to_fundamental_domain(tau)
            assert theta._reduce(tau.tau1, tau.tau2, tau.tau4) == (res.transform.rows, res.iterations)
            q, det2 = res.reduced, res.cocycle * res.cocycle
            perm, sign = theta._rho(tuple(tuple(x & 1 for x in row) for row in res.transform.rows))
            values = theta._fourth_powers(q.tau1, q.tau2, q.tau4, q.min_imag_eigenvalue(), self.TOL * abs(det2),
                                          theta._DOMAIN_RADIUS)
            assert np.array_equal(got, sign * values[perm] / det2)

    def test_route_checks_its_witness_and_image(self, monkeypatch):
        """The only killers of "route drops the form check" and "route drops
        the H2 check on the image": like reduce_to_fundamental_domain, the
        route refuses a witness that does not preserve the symplectic form
        and an image outside H2, here made by the loop and the action
        replaced."""
        tau = scaled(1e-2)
        bent = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with monkeypatch.context() as m:
            m.setattr(theta, "_reduce", lambda *entries: (bent, 1))
            with pytest.raises(sr.InvalidInputError, match="symplectic form"):
                sr.theta_fourth_vector(tau, self.TOL)
        act = theta._act_entries

        def conjugated(g, *entries):
            image, cocycle = act(g, *entries)
            return tuple(z.conjugate() for z in image), cocycle

        monkeypatch.setattr(theta, "_act_entries", conjugated)
        with pytest.raises(sr.InvalidInputError, match="not positive definite"):
            sr.theta_fourth_vector(tau, self.TOL)

    def test_double_range_edge(self):
        """The only killers of "double-range refusal dropped" and "overflow
        bound dropped from the scalar test".  Both points go through J, with
        det(C tau + D)^2 = det(tau)^2 below the bound past which the route
        divides unchecked: at Im scale 1e-78 it is about 2e-312 and the
        values leave the double range, which is refused, and at 1e-77 about
        2e-308, which leaves the largest value at 5.18e307."""
        with pytest.raises(sr.ResourceLimitError, match=r"^theta fourth powers leave the double range$"):
            sr.theta_fourth_vector(sr.SiegelPoint(1.1e-78j, 0.2e-78j, 1.3e-78j), 1e300)
        v = sr.theta_fourth_vector(sr.SiegelPoint(1.1e-77j, 0.2e-77j, 1.3e-77j), 1e300)
        assert np.isfinite(v).all() and 5.17e307 < np.max(np.abs(v)) < 5.19e307

    def test_reduced_points_sum_directly(self, monkeypatch):
        monkeypatch.setattr(theta, "_reduce", None)
        for tau in sr.sample_reduced_points(50, seed=72):
            sr.theta_fourth_vector(tau)

    def test_gate_adds_no_tail_bound_call(self, monkeypatch):
        """The only killer of "extra radius search on the direct path": one
        tail bound, of the box at the gate radius, decides the route and
        sizes the cut, with no radius search.  Radii from 3 up to the gate,
        all summed at 2 tau: a gate one lower routes the last."""
        scales = (1.0, 0.3, 0.036)
        assert scaled_radius(scales[-1], self.TOL) == theta._ROUTE_RADIUS
        points = sr.sample_reduced_points(5, seed=73) + [scaled(s) for s in scales]
        calls = []
        bound = theta._tail
        monkeypatch.setattr(theta, "_tail", lambda *args: calls.append(args) or bound(*args))
        for tau in points:
            sr.theta_fourth_vector(tau, self.TOL)
            assert calls == [(theta._ROUTE_RADIUS, 2.0 * tau.min_imag_eigenvalue())]
            calls.clear()
