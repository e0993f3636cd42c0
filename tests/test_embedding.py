import math
from fractions import Fraction

import numpy as np
import pytest

import siegel_runge as sr

from oracles import small_indices


PRODUCT_POINT = sr.SiegelPoint(1j, 0, 1.3j)
GENERIC_POINT = sr.SiegelPoint(0.05 + 1.1j, -0.11 + 0.2j, 0.23 + 1.2j)


class TestPsi:
    def test_period_two_projectively(self):
        tau = GENERIC_POINT
        shifted = sr.SiegelPoint.from_matrix(tau.matrix + 2 * np.array([[1, -1], [-1, 2]]))
        assert sr.projective_distance(sr.psi(tau), sr.psi(shifted)) <= 1e-9

    def test_level2_invariance(self):
        rng = np.random.default_rng(61)
        taus = sr.sample_reduced_points(2, seed=61)
        for _ in range(5):
            g = sr.random_level2_matrix(rng)
            for tau in taus:
                d = sr.projective_distance(sr.psi(sr.act(g, tau)), sr.psi(tau))
                assert d <= 1e-7

    def test_full_group_permutes_magnitudes(self):
        rng = np.random.default_rng(62)
        for tau in sr.sample_reduced_points(2, seed=62):
            for _ in range(3):
                g = sr.random_symplectic_matrix(rng, entry_bound=10)
                _, _, c, d = g.blocks
                den = c @ tau.matrix + d
                det = den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0]
                lhs = np.sort(np.abs(sr.psi(sr.act(g, tau), 1e-10).coords))
                rhs = abs(det) ** 2 * np.sort(np.abs(sr.psi(tau, 1e-10).coords))
                assert np.max(np.abs(lhs - rhs)) <= 1e-7 * np.max(rhs)

    def test_all_zero_coordinates_rejected(self):
        with pytest.raises(sr.InconsistencyError):
            sr.ProjectivePoint(np.full(10, 1e-12 + 0j), 1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(np.inf, 1)],
                             ids=["nan", "inf", "nan-imag", "inf-real"])
    def test_non_finite_coordinates_rejected(self, bad):
        # a nan coordinate once gave sup = nan, an empty vanishing set and a nan height
        with pytest.raises(sr.InvalidInputError, match="finite"):
            sr.ProjectivePoint(np.array([bad] + [1] * 9, dtype=complex), 1e-8)

    @pytest.mark.parametrize("position", range(10))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 1)],
                             ids=["nan", "inf", "nan-imag", "minus-inf-real"])
    def test_non_finite_coordinate_refused_at_every_position(self, bad, position):
        # sup is a plain-Python max, which skips a nan unless it comes first
        coords = np.linspace(1.0, 2.0, 10).astype(complex)
        coords[position] = bad
        with pytest.raises(sr.InvalidInputError, match="finite"):
            sr.ProjectivePoint(coords, 1e-8)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a tol of -1 once built a point with sup 0 whose normalized coordinates were all nan
        with pytest.raises(sr.InvalidInputError, match="tol"):
            sr.ProjectivePoint(np.zeros(10), tol)
        with pytest.raises(sr.InvalidInputError, match="tol"):
            sr.ProjectivePoint(np.ones(10), tol)

    def test_sup_is_read_by_every_consumer(self):
        taus = list(sr.sample_reduced_points(12, seed=64)) + [PRODUCT_POINT, sr.SiegelPoint(1j, 0, 6j)]
        points = [sr.psi(tau) for tau in taus]
        for p in points:
            top = np.abs(p.coords).max()
            assert p.sup == top
            assert sr.near_zero_coordinates(p) == small_indices(p.coords, 1e-6)
            assert sr.archimedean_height_estimate([p], 1) == math.log(top)
            assert np.array_equal(p.normalized(), p.coords / top)
        assert any(sr.near_zero_coordinates(p) for p in points)
        rows = np.vstack([p.coords / np.abs(p.coords).max() for p in points])
        assert np.array_equal(sr.relation_singular_values(points), np.linalg.svd(rows, compute_uv=False))
        assert "sup" not in repr(points[0])

    def test_distance_separates_points(self):
        p = sr.psi(GENERIC_POINT)
        q = sr.psi(PRODUCT_POINT)
        assert sr.projective_distance(p, p) <= 1e-12
        assert sr.projective_distance(p, q) > 1e-3


class TestVanishing:
    def test_product_point_single_zero(self):
        assert sr.near_zero_coordinates(sr.psi(sr.SiegelPoint(1j, 0, 1j))) == {9}

    def test_generic_points_no_zero(self):
        for tau in sr.sample_reduced_points(20, seed=63):
            assert sr.near_zero_coordinates(sr.psi(tau)) == set()

    def test_decay_along_one_sided_path(self):
        # With Im(tau1) pinned at 1 only the four even characteristics with
        # a2 = 1/2 decay.  One of them, ((1/2,1/2),(1/2,1/2)), vanishes
        # because tau2 = 0 on this path, not identically.  The six-coordinate
        # decay shows up only when the whole imaginary part grows, tested below.
        counts = []
        for t in (2, 5, 10, 20):
            p = sr.psi(sr.SiegelPoint(1j, 0, t * 1j))
            counts.append(len(sr.near_zero_coordinates(p)))
        assert counts == sorted(counts)
        assert counts[-1] == 4
        assert sr.near_zero_coordinates(sr.psi(sr.SiegelPoint(1j, 0, 50j))) == {4, 5, 8, 9}

    def test_decay_toward_deepest_cusp(self):
        p = sr.psi(sr.SiegelPoint(20j, 0, 20j))
        assert len(sr.near_zero_coordinates(p)) >= 6


class TestProductLocusDetector:
    def test_product_point(self):
        assert sr.is_product_locus(PRODUCT_POINT) is True

    def test_generic_point(self):
        assert sr.is_product_locus(GENERIC_POINT) is False

    def test_invariant_under_conjugation(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            g = sr.random_symplectic_matrix(rng, entry_bound=20)
            assert sr.is_product_locus(sr.act(g, PRODUCT_POINT)) is True

    def test_indeterminate_near_cusp(self):
        assert sr.is_product_locus(sr.SiegelPoint(1j, 0, 5j)) is None


class TestRelationRank:
    def test_generic_rank_is_five(self):
        # The ten fourth powers satisfy five independent linear relations:
        # they span the five-dimensional space of weight-2 level-2 forms and
        # the embedded threefold is a quartic hypersurface of a P^4.  A
        # quartic hypersurface that is three-dimensional cannot live in P^5,
        # so a sampled rank of 6 is impossible; the observed spectrum has a
        # machine-precision cliff after the fifth value.
        points = [sr.psi(t) for t in sr.sample_reduced_points(50, seed=1)]
        s = sr.relation_singular_values(points)
        assert sr.relation_rank(points) == 5
        assert s[4] / s[5] >= 1e10

    def test_degenerate_repeated_sample(self):
        points = [sr.psi(GENERIC_POINT)] * 12
        assert sr.relation_rank(points) == 1

    def test_diagonal_sublocus_rank(self):
        rng = np.random.default_rng(65)
        points = []
        for _ in range(20):
            tau = sr.SiegelPoint(
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.8)),
                0.0,
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.8)),
            )
            points.append(sr.psi(tau))
        rank = sr.relation_rank(points)
        assert rank <= 5  # observed: 4 on the diagonal sublocus

    def test_too_few_samples(self):
        with pytest.raises(sr.InvalidInputError):
            sr.relation_rank([sr.psi(GENERIC_POINT)] * 9)


class TestTube:
    def test_membership(self):
        tau = sr.SiegelPoint(1j, 0, 1j)
        assert sr.in_tube(tau, 0.9) is True
        assert sr.in_tube(tau, 1.1) is False

    def test_boundary_parameter_allowed(self):
        assert sr.in_tube(sr.SiegelPoint(1j, 0, 1j), sr.MIN_TUBE_PARAMETER) is True

    def test_small_parameter_rejected(self):
        with pytest.raises(sr.InvalidInputError, match=r"must be >= sqrt\(3\)/2 ~ 0.866025, got 0.5"):
            sr.in_tube(sr.SiegelPoint(1j, 0, 1j), 0.5)

    @pytest.mark.parametrize("t", [None, "x", "1.0", 1j, float("nan"), float("inf"), -float("inf")],
                             ids=["none", "word", "numeric-string", "complex", "nan", "inf", "-inf"])
    def test_parameter_must_be_a_finite_real_number(self, t):
        # None raised TypeError, "x" a bare ValueError, and "1.0" was parsed
        with pytest.raises(sr.InvalidInputError, match="tube parameter"):
            sr.in_tube(sr.SiegelPoint(1j, 0, 1j), t)

    @pytest.mark.parametrize("t", [1, np.float64(0.9), Fraction(9, 10), np.int64(1)],
                             ids=["int", "float64", "fraction", "int64"])
    def test_real_number_types_accepted(self, t):
        assert sr.in_tube(sr.SiegelPoint(1j, 0, 1j), t) is True

    def test_product_locus_detector_decides_the_tube_through_in_tube(self, monkeypatch):
        from siegel_runge import embedding

        calls = []
        monkeypatch.setattr(embedding, "in_tube", lambda p, t: calls.append(t) or True)
        assert sr.is_product_locus(PRODUCT_POINT) is None
        assert calls == [embedding.DEFAULT_TUBE_CUTOFF]
