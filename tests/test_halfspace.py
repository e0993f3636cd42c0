import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel_runge as sr
from siegel_runge import halfspace
from siegel_runge.halfspace import _gottschling_scan, _integer_rows, gottschling_matrices

from oracles import (act_solve, condition_number_exact, congruence, from_matrix_reference, gauss_rounding_bound,
                     gl2_embedding_reference, gottschling_scan_by_coefficients, gram_exact, integer_rows_reference,
                     minkowski_gl2_reference, reduce_reference, symplectic_by_products, symplectic_inverse,
                     translation_reference)


I2 = np.eye(2)


def rand_tau(rng):
    y12 = rng.uniform(-0.3, 0.3)
    y = np.array([[1.0 + rng.uniform(0, 1), y12], [y12, 1.2 + rng.uniform(0, 1)]])
    x = rng.uniform(-0.5, 0.5, 3)
    return sr.SiegelPoint(complex(x[0], y[0, 0]), complex(x[1], y[0, 1]), complex(x[2], y[1, 1]))


class TestMembership:
    """Membership of H2 is decided by SiegelPoint.from_matrix, which builds
    the point or raises InvalidInputError naming the failure."""

    def test_identity_times_i(self):
        assert sr.SiegelPoint.from_matrix(1j * I2) == sr.SiegelPoint(1j, 0, 1j)

    def test_negative_eigenvalue(self):
        with pytest.raises(sr.InvalidInputError, match="not positive definite"):
            sr.SiegelPoint.from_matrix(np.diag([1j, -1j]))

    def test_indefinite_imaginary_part(self):
        # both leading minors of Im(tau) decide: y1 = 1 > 0, and y1 y4 - y2^2 flips sign
        z = 10 + 1.001j
        with pytest.raises(sr.InvalidInputError, match="not positive definite"):
            sr.SiegelPoint.from_matrix(np.array([[1j, z], [z, 1j]]))
        z = 10 + 0.999j
        assert sr.SiegelPoint.from_matrix(np.array([[1j, z], [z, 1j]])) == sr.SiegelPoint(1j, z, 1j)

    def test_asymmetric_is_rejected(self):
        with pytest.raises(sr.InvalidInputError, match="not symmetric"):
            sr.SiegelPoint.from_matrix(np.array([[1j, 0.5], [0.4, 1j]]))

    def test_asymmetry_within_tolerance_is_averaged(self):
        p = sr.SiegelPoint.from_matrix([[1j, 0.1j + 1e-14], [0.1j, 1j]])
        assert p.tau2 == 0.5 * ((0.1j + 1e-14) + 0.1j)

    def test_asymmetry_below_one_is_absolute(self):
        # entries below 1: an asymmetry of 5e-14 is within 1e-12 absolute,
        # though 5 times 1e-12 relative to the largest entry, 0.01
        p = sr.SiegelPoint.from_matrix([[0.01j, 0.001j + 5e-14], [0.001j, 0.01j]])
        assert p.tau2 == 0.5 * ((0.001j + 5e-14) + 0.001j)
        with pytest.raises(sr.InvalidInputError, match="not symmetric"):
            sr.SiegelPoint.from_matrix([[0.01j, 0.001j + 2e-12], [0.001j, 0.01j]])

    @pytest.mark.parametrize("bad", [np.nan * 1j, np.nan, np.inf * 1j], ids=["nan-imag", "nan", "inf-imag"])
    def test_non_finite_raises(self, bad):
        with pytest.raises(sr.InvalidInputError, match="finite"):
            sr.SiegelPoint.from_matrix(np.array([[bad, 0], [0, 1j]]))

    def test_tiny_diagonal_is_accepted(self):
        # y1 * y4 underflows to 0 here; the point is still in H2
        assert sr.SiegelPoint.from_matrix(np.diag([1e-200j, 1e-200j])) == sr.SiegelPoint(1e-200j, 0, 1e-200j)
        assert sr.SiegelPoint(1e-200j, 0, 1e-200j).min_imag_eigenvalue() > 0

    @pytest.mark.parametrize("entries", [(1e-60j, 0, 1j), (1j, 0, 1e-60j)], ids=["tau1", "tau4"])
    def test_min_eigenvalue_of_far_apart_eigenvalues(self, entries):
        # 0.5 (tr - disc) cancels to 0 here
        assert abs(sr.SiegelPoint(*entries).min_imag_eigenvalue() - 1e-60) <= 1e-12 * 1e-60

    def test_min_eigenvalue_matches_eigvalsh(self):
        # the far-apart cases above have tau2 = 0, where a wrong weight of
        # y2 in the discriminant does not show
        for tau in sr.sample_reduced_points(20, seed=5):
            want = np.linalg.eigvalsh(tau.imag)[0]
            assert abs(tau.min_imag_eigenvalue() - want) <= 1e-14 * want

    def test_point_constructor_enforces_h2(self):
        with pytest.raises(sr.InvalidInputError):
            sr.SiegelPoint(1j, 0, -1j)
        with pytest.raises(sr.InvalidInputError):
            sr.SiegelPoint(1j, 0j, -1j)
        with pytest.raises(sr.InvalidInputError):
            sr.SiegelPoint.from_matrix(np.array([[1j, 0.5], [0.3, 1j]]))

    @pytest.mark.parametrize("entries", [("1j", "0", "2j"), (1j, None, 1j), (1j, 0, [1j])],
                             ids=["strings", "none", "list"])
    def test_non_numeric_entries_rejected(self, entries):
        # strings were stored as given; in_tube, psi and theta_constant then
        # failed with AttributeError or TypeError
        with pytest.raises(sr.InvalidInputError):
            sr.SiegelPoint(*entries)

    @pytest.mark.parametrize("entries", [(1j, 0, 1j), (np.complex128(1j), np.int64(0), 1j),
                                         (1j, np.float64(0.0), np.complex128(1j))],
                             ids=["int", "numpy-int", "numpy-float"])
    def test_entries_stored_as_complex(self, entries):
        p = sr.SiegelPoint(*entries)
        assert all(type(z) is complex for z in (p.tau1, p.tau2, p.tau4))
        want = sr.SiegelPoint(1j, 0j, 1j)
        assert p == want and hash(p) == hash(want)


class TestSymplectic:
    def test_identity(self):
        assert sr.is_symplectic(np.eye(4, dtype=int))

    def test_j(self):
        assert sr.is_symplectic(sr.J.mat)

    def test_scaling_fails(self):
        assert not sr.is_symplectic(np.diag([2, 1, 1, 1]))

    def test_non_integer_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            sr.is_symplectic(np.full((4, 4), 0.5))

    @pytest.mark.parametrize("draw", [sr.random_symplectic_matrix, sr.random_level2_matrix],
                             ids=lambda f: f.__name__)
    def test_inverse_and_product(self, draw):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = draw(rng)
            assert (g @ g.inverse()).mat.tolist() == np.eye(4, dtype=int).tolist()
            assert (g.inverse() @ g).mat.tolist() == np.eye(4, dtype=int).tolist()
            assert g.inverse().mat.tolist() == symplectic_inverse(g.mat).tolist()

    @pytest.mark.parametrize("draw", [sr.random_symplectic_matrix, sr.random_level2_matrix],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kwargs", [{"max_word": 0}, {"max_word": "x"}, {"max_word": 2.5},
                                        {"entry_bound": 0}, {"entry_bound": "x"}, {"entry_bound": 2.5}],
                             ids=["word-zero", "word-string", "word-half", "bound-zero", "bound-string", "bound-half"])
    def test_word_arguments_are_positive_integers(self, draw, kwargs):
        # max_word=0 raised numpy's ValueError and "x" a TypeError; 2.5 was taken
        with pytest.raises(sr.InvalidInputError):
            draw(np.random.default_rng(0), **kwargs)

    def test_level2_entry_bound_is_inclusive(self):
        # a level-2 word other than the identity has an entry of magnitude 2
        # or more, so with the bound at 2 the draws reach it
        rng = np.random.default_rng(0)
        largest = {max(abs(x) for row in sr.random_level2_matrix(rng, entry_bound=2).rows for x in row)
                   for _ in range(20)}
        assert max(largest) == 2

    def test_level2_check_is_no_assert(self, monkeypatch):
        # an assert, which python -O drops, made this check
        from siegel_runge import sampling

        monkeypatch.setattr(sampling, "is_level2", lambda g: False)
        with pytest.raises(sr.InconsistencyError, match="not level 2"):
            sr.random_level2_matrix(np.random.default_rng(0))

    def test_agrees_with_product_oracle(self):
        # words, and every single-entry +-1 perturbation of them, which is
        # never symplectic; the oracle decides each one independently
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = sr.random_symplectic_matrix(rng).mat
            assert sr.is_symplectic(m) and symplectic_by_products(m)
            for i in range(4):
                for j in range(4):
                    for step in (1, -1):
                        bent = m.copy()
                        bent[i, j] += step
                        assert sr.is_symplectic(bent) == symplectic_by_products(bent)

    def test_integer_forms_are_equal(self):
        rows = sr.random_symplectic_matrix(np.random.default_rng(2)).mat.tolist()
        forms = [sr.SymplecticMatrix(np.array(rows, dtype=t)) for t in (np.int64, float, object)]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(g) for g in forms}) == 1

    def test_mat_is_a_read_only_int64_view(self):
        m = sr.J.mat
        assert m.dtype == np.int64
        with pytest.raises(ValueError):
            m[0, 0] = 5
        assert sr.J.mat.tolist() == [list(r) for r in sr.J.rows]

    @pytest.mark.parametrize("entry", [1.7, float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [sr.SymplecticMatrix, sr.is_symplectic,
                                       sr.is_level2, lambda m: sr.act(m, sr.SiegelPoint(1j, 0, 1j))],
                             ids=["constructor", "is_symplectic", "is_level2", "act"])
    def test_non_integer_entry_rejected(self, build, entry):
        # an identity whose corner used to be truncated to 1 and accepted
        m = np.eye(4).tolist()
        m[3][3] = entry
        with pytest.raises(sr.InvalidInputError):
            build(m)

    @pytest.mark.parametrize("build", [sr.SymplecticMatrix, sr.is_symplectic])
    def test_entry_past_int64_is_resource_limit(self, build):
        # the shift by 2^63, which used to wrap to -2^63 or raise a bare
        # OverflowError
        m = np.eye(4, dtype=int).tolist()
        m[0][2] = 2**63
        with pytest.raises(sr.ResourceLimitError):
            build(m)

    @pytest.mark.parametrize("entry", [True, np.int64(-3), 2.0, 2**63 - 1, 2**63, -2**63, 1.5, "1"],
                             ids=["bool", "numpy-int64", "integral-float", "int64-max", "2^63", "-2^63",
                                  "half", "string"])
    @pytest.mark.parametrize("as_lists", [False, True], ids=["tuples", "lists"])
    def test_int_rows_fast_path_matches_conversion(self, entry, as_lists):
        # four 4-tuples of exact ints skip the numpy conversion; every other
        # input must come out, or fail, as through it
        def outcome(m):
            try:
                rows = _integer_rows(m)
            except sr.SiegelRungeError as exc:
                return type(exc)
            assert all(type(x) is int for row in rows for x in row)
            return rows

        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows[1][3] = entry
        given_rows = rows if as_lists else tuple(map(tuple, rows))
        assert outcome(given_rows) == outcome(np.array(rows, dtype=object))

    def test_int_rows_fast_path_checks_the_shape_and_the_form(self):
        ragged = ((1, 0, 0, 0, 0), (1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(sr.InvalidInputError):
            _integer_rows(ragged)
        doubled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(sr.InvalidInputError):
            sr.SymplecticMatrix(doubled)
        assert _integer_rows(doubled) == doubled

    @pytest.mark.parametrize("k", [10**9, 2**31, 4 * 10**9])
    def test_product_exact_or_refused(self, k):
        # [[I, B], [0, I]] @ [[I, 0], [C, I]] has corner 1 + k^2, which
        # leaves int64 once k^2 >= 2^63; at k = 2^31 it is 1 + 2^62 and fits.
        upper = np.eye(4, dtype=np.int64)
        upper[0, 2] = k
        lower = np.eye(4, dtype=np.int64)
        lower[2, 0] = k
        u, low = sr.SymplecticMatrix(upper), sr.SymplecticMatrix(lower)
        if k * k < 2**63:
            exact = upper.astype(object) @ lower.astype(object)
            assert (u @ low).mat.tolist() == exact.tolist()
        else:
            with pytest.raises(sr.ResourceLimitError):
                u @ low


class TestLevel2:
    def test_identity(self):
        assert sr.is_level2(np.eye(4, dtype=int))

    def test_j_is_not(self):
        assert not sr.is_level2(sr.J)

    def test_even_translation_is(self):
        assert sr.is_level2(sr.translation([[2, 0], [0, 0]]))
        assert not sr.is_level2(sr.translation([[1, 0], [0, 0]]))

    def test_even_diagonal_is_not(self):
        # any integer matrix is read: 2 I and 0 are even off the diagonal,
        # but not the identity mod 2
        assert not sr.is_level2(2 * np.eye(4, dtype=int))
        assert not sr.is_level2(np.zeros((4, 4), dtype=int))


def assert_matches_solve(g, tau):
    """act(g, tau) agrees with the LAPACK-solve action to 1e-12 relative, and
    the reduction witness of the image, replayed through that action, gives
    the reduced point to 1e-12."""
    moved = sr.act(g, tau)
    ref = act_solve(g.mat, tau.matrix)
    assert np.max(np.abs(moved.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))
    res = sr.reduce_to_fundamental_domain(moved)
    replay = act_solve(res.transform.mat, moved.matrix)
    assert np.max(np.abs(replay - res.reduced.matrix)) <= 1e-12


class TestAction:
    def test_identity_fixes(self):
        tau = rand_tau(np.random.default_rng(1))
        out = sr.act(np.eye(4, dtype=int), tau)
        assert np.allclose(out.matrix, tau.matrix, atol=1e-15)

    def test_translation_shifts(self):
        tau = rand_tau(np.random.default_rng(2))
        b = np.array([[2, -1], [-1, 3]])
        out = sr.act(sr.translation(b), tau)
        assert np.allclose(out.matrix, tau.matrix + b, atol=1e-14)

    def test_asymmetric_translation_rejected(self):
        with pytest.raises(sr.InvalidInputError, match="symmetric"):
            sr.translation([[1, 2], [3, 4]])

    def test_j_fixes_i_identity(self):
        out = sr.act(sr.J, sr.SiegelPoint(1j, 0, 1j))
        assert np.allclose(out.matrix, 1j * I2, atol=1e-15)

    @pytest.mark.parametrize("u", [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
                                   [[2, 1], [1, 1]], [[1, 0], [3, -1]], [[-2, 3], [1, -1]]])
    def test_gl2_embedding_is_congruence(self, u):
        g = sr.gl2_embedding(u)
        um = np.array(u, dtype=float)
        rng = np.random.default_rng(11)
        for _ in range(5):
            tau = rand_tau(rng)
            assert np.max(np.abs(sr.act(g, tau).matrix - um.T @ tau.matrix @ um)) <= 1e-12

    @pytest.mark.parametrize("u", [[[2, 0], [0, 1]], [[1, 1], [1, 3]], [[1, 0, 0], [0, 1, 0]], [[1]]],
                             ids=["det2", "det2-offdiagonal", "2x3", "1x1"])
    def test_gl2_embedding_rejects(self, u):
        with pytest.raises(sr.InvalidInputError):
            sr.gl2_embedding(u)

    def test_preserves_h2(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            tau = rand_tau(rng)
            g = sr.random_symplectic_matrix(rng)
            assert sr.act(g, tau).min_imag_eigenvalue() > 0

    def test_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tau = rand_tau(rng)
            g1 = sr.random_symplectic_matrix(rng, max_word=4, entry_bound=5)
            g2 = sr.random_symplectic_matrix(rng, max_word=4, entry_bound=5)
            lhs = sr.act(g1, sr.act(g2, tau)).matrix
            rhs = sr.act(g1 @ g2, tau).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_det_imag_cocycle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tau = rand_tau(rng)
            g = sr.random_symplectic_matrix(rng, entry_bound=20)
            _, _, c, d = g.blocks
            den = c @ tau.matrix + d
            det = den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0]
            lhs = np.linalg.det(sr.act(g, tau).imag)
            rhs = np.linalg.det(tau.imag) / abs(det) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(10)
        for tau in sr.sample_reduced_points(40, seed=29):
            for _ in range(5):
                assert_matches_solve(sr.random_symplectic_matrix(rng), tau)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_oracle_on_random_words(self, word_seed, point_seed):
        g = sr.random_symplectic_matrix(np.random.default_rng(word_seed))
        assert_matches_solve(g, sr.sample_reduced_points(1, seed=point_seed)[0])

    def test_near_singular_cocycle_raises(self):
        # det(-tau) = (1 + 1e-13 i)^2 - 1 cancels to 2e-13 against products of size 1
        near = sr.SiegelPoint(1 + 1e-13j, 1, 1 + 1e-13j)
        with pytest.raises(sr.ConditioningError):
            sr.act(sr.J, near)

    def test_underflowed_cocycle_is_scaled(self):
        # det(-tau) = 1e-400 and both of its products underflow to 0; the
        # test and the image are redone on M and N scaled by 2^k, exactly
        tau = sr.SiegelPoint(1e-200j, 0, 1e-200j)
        assert sr.act(sr.J, tau) == sr.SiegelPoint(1e200j, 0, 1e200j)
        image, cocycle = halfspace._act_entries(sr.J.rows, tau.tau1, tau.tau2, tau.tau4)
        assert cocycle == 0
        # a larger tiny point keeps its cocycle, scaled back exactly
        tau = sr.SiegelPoint(2.0**-600 * 1j, 0, 2.0**-500 * 1j)
        image, cocycle = halfspace._act_entries(sr.J.rows, tau.tau1, tau.tau2, tau.tau4)
        assert cocycle == -(2.0**-1100) and image == (2.0**600 * 1j, 0, 2.0**500 * 1j)
        # below 2^-900 the scaled rows of g could overflow: refused as before
        with pytest.raises(sr.ConditioningError):
            sr.act(sr.J, sr.SiegelPoint(1e-280j, 0, 1e-280j))

    def test_cocycle_scaled_by_at_most_two_to_the_900(self):
        # M = -tau: its largest entry is scaled into [1/2, 1) by 2^k, and
        # k = 900 is the largest the rows of g may be scaled by
        tau = sr.SiegelPoint(2.0**-901 * 1j, 0, 2.0**-901 * 1j)
        assert sr.act(sr.J, tau) == sr.SiegelPoint(2.0**901 * 1j, 0, 2.0**901 * 1j)
        with pytest.raises(sr.ConditioningError):
            sr.act(sr.J, sr.SiegelPoint(2.0**-902 * 1j, 0, 2.0**-902 * 1j))

    def test_cancelling_cocycle_raises_at_any_scale(self):
        # rows of M = C tau + D equal, with products that underflow: the
        # scaled retry still sees det(M) = 0 and refuses it
        rows = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0))
        with pytest.raises(sr.ConditioningError):
            halfspace._act_entries(rows, 1e-200j, 1e-200j, 1e-200j)

    def test_small_tau_is_not_ill_conditioned(self):
        # |det tau| = 1e-120, but -tau^-1 is exact: the test is relative to tau
        assert sr.act(sr.J, sr.SiegelPoint(1e-60j, 0, 1e-60j)) == sr.SiegelPoint(1e60j, 0, 1e60j)


class TestGottschling:
    def test_nineteen_symplectic_matrices(self):
        mats = gottschling_matrices()
        assert len(mats) == 19
        assert len({g.mat.tobytes() for g in mats}) == 19
        assert all(symplectic_by_products(g.mat) for g in mats)

    def test_cocycle_determinants(self):
        # the documented det(C tau + D) values, in construction order
        tau = rand_tau(np.random.default_rng(6))
        t1, t2, t4 = tau.tau1, tau.tau2, tau.tau4

        def det_shift(s):
            return (t1 + s[0][0]) * (t4 + s[1][1]) - (t2 + s[0][1]) * (t2 + s[1][0])

        expected = [det_shift([[d1, 0], [0, d2]]) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)]
        expected += [det_shift([[0, e], [e, 0]]) for e in (1, -1)]
        expected += [t1, t4]
        for e in (1, -1):
            expected += [t1 + 2 * e * t2 + t4 + d for d in (0, 1, -1)]

        per_matrix = []
        for g in gottschling_matrices():
            _, _, c, d = g.blocks
            den = c @ tau.matrix + d
            per_matrix.append(den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0])
        # the same values from the scalar scan the reduction runs
        for got in (per_matrix, _gottschling_scan(tau.tau1, tau.tau2, tau.tau4)):
            assert len(got) == 19
            assert np.max(np.abs(np.asarray(got) - expected)) < 1e-12


def minkowski_ok(y, tol=1e-9):
    return (
        abs(y[0, 1]) * 2 <= y[0, 0] + tol
        and y[0, 0] <= y[1, 1] + tol
        and y[0, 1] >= -tol
    )


class TestReduction:
    def test_already_reduced_fixed(self):
        res = sr.reduce_to_fundamental_domain(sr.SiegelPoint(1j, 0, 1j))
        assert np.allclose(res.reduced.matrix, 1j * I2, atol=1e-15)
        assert np.array_equal(np.abs(res.transform.mat), np.eye(4, dtype=int))

    def test_translation_removed(self):
        tau = sr.SiegelPoint(3 + 1j, -2, 5 + 1j)
        res = sr.reduce_to_fundamental_domain(tau)
        assert np.allclose(res.reduced.matrix, 1j * I2, atol=1e-14)
        assert np.allclose(sr.act(res.transform, tau).matrix, res.reduced.matrix, atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for tau0 in sr.sample_reduced_points(25, seed=17):
            g = sr.random_symplectic_matrix(rng)
            res = sr.reduce_to_fundamental_domain(sr.act(g, tau0))
            assert np.max(np.abs(res.reduced.matrix - tau0.matrix)) <= 1e-8
            assert res.iterations <= 1000

    @pytest.mark.parametrize("n", [2.5, "3", 0])
    def test_sample_count_is_a_positive_integer(self, n):
        # 2.5 raised a bare TypeError from range
        with pytest.raises(sr.InvalidInputError):
            sr.sample_reduced_points(n, 1)
        assert sr.sample_reduced_points(2.0, 1) == sr.sample_reduced_points(2, 1)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None], ids=["negative", "half", "string", "none"])
    def test_seed_is_a_nonnegative_integer(self, seed):
        # -1 raised numpy's ValueError and 2.5 a bare TypeError
        with pytest.raises(sr.InvalidInputError):
            sr.sample_reduced_points(2, seed)
        assert sr.sample_reduced_points(2, 7.0) == sr.sample_reduced_points(2, np.int64(7)) \
            == sr.sample_reduced_points(2, 7)

    def test_samples_keep_im_tau2_off_zero(self):
        # theta fourth powers flatten toward the product divisors tau2 = 0,
        # so sample_reduced_points adds a rank-one part to Im(tau)
        assert min(p.tau2.imag for p in sr.sample_reduced_points(200, seed=0)) >= 0.1

    def test_determinant_within_tol_of_one_takes_no_step(self):
        # a Gottschling step fires below 1 - _TOL, so |tau1| a rounding
        # short of the boundary |tau1| = 1 is reduced as it is
        res = sr.reduce_to_fundamental_domain(sr.SiegelPoint((1 - 1e-12) * 1j, 0, 2j))
        assert res.transform.rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert res.iterations == 1

    def test_idempotent(self):
        for tau in sr.sample_reduced_points(10, seed=23):
            res = sr.reduce_to_fundamental_domain(tau)
            assert np.max(np.abs(res.reduced.matrix - tau.matrix)) <= 1e-12
            assert np.array_equal(np.abs(res.transform.mat), np.eye(4, dtype=int))

    def test_output_satisfies_domain_conditions(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tau = rand_tau(rng)
            g = sr.random_symplectic_matrix(rng)
            red = sr.reduce_to_fundamental_domain(sr.act(g, tau)).reduced
            assert minkowski_ok(red.imag)
            assert np.max(np.abs(red.matrix.real)) <= 0.5 + 1e-9
            for gm in gottschling_matrices():
                _, _, c, d = gm.blocks
                den = c @ red.matrix + d
                det = den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0]
                assert abs(det) >= 1 - 1e-9

    def test_witness_transform(self):
        rng = np.random.default_rng(9)
        tau = rand_tau(rng)
        g = sr.random_symplectic_matrix(rng)
        moved = sr.act(g, tau)
        res = sr.reduce_to_fundamental_domain(moved)
        assert np.max(np.abs(sr.act(res.transform, moved).matrix - res.reduced.matrix)) <= 1e-12

    def test_tiny_point_reduces_through_j(self):
        tiny = sr.SiegelPoint(1e-60j, 0, 1e-60j)
        res = sr.reduce_to_fundamental_domain(tiny)
        assert res.transform in (sr.J, sr.J.inverse())
        assert res.reduced == sr.SiegelPoint(1e60j, 0, 1e60j)
        assert sr.act(res.transform, tiny) == res.reduced

    def test_overflowing_transform_raises(self):
        # With Im(tau) scaled by 1e-40 the witness transform outgrows int64;
        # unchecked, its entries wrapped silently to just under 2^63.
        p = sr.sample_reduced_points(6, seed=3)[0]
        entries = (p.tau1, p.tau2, p.tau4)
        squeezed = sr.SiegelPoint(*(complex(z.real, 1e-40 * z.imag) for z in entries))
        with pytest.raises(sr.ResourceLimitError):
            sr.reduce_to_fundamental_domain(squeezed)

    @pytest.mark.parametrize("scale", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_squeezed_output_satisfies_domain_conditions(self, scale):
        # on squeezed points the witness image lies furthest from the
        # loop's last iterate
        for p in sr.sample_reduced_points(10, seed=29):
            red = sr.reduce_to_fundamental_domain(squeeze(p, scale)).reduced
            assert minkowski_ok(red.imag)
            assert np.max(np.abs(red.matrix.real)) <= 0.5 + 1e-9
            dets = gottschling_scan_by_coefficients(red.tau1, red.tau2, red.tau4)
            assert min(map(abs, dets)) >= 1 - 1e-9

    def test_pass_cap_raises_non_convergence(self, monkeypatch):
        tau = sr.act(sr.J, sr.sample_reduced_points(1, seed=31)[0])
        assert sr.reduce_to_fundamental_domain(tau).iterations > 1
        monkeypatch.setattr(halfspace, "_MAX_ITER", 1)
        with pytest.raises(sr.NonConvergenceError):
            sr.reduce_to_fundamental_domain(tau)
        with pytest.raises(sr.NonConvergenceError):
            reduce_reference(tau)


class TestGaussReduction:
    """_minkowski_gl2 on forms where rounding decides a Gauss step."""

    #: Past about 1/eps the rounding in U^t Y U reaches G11.
    ILL_CONDITIONED = 1.0 / np.finfo(float).eps

    def test_lost_precision_raises_conditioning_error(self):
        # Im(tau) is positive definite, but its entries exceed its smallest
        # eigenvalue by 1e22: rounding flips G12 = -+0.09375 against
        # G11 = 0.1855, so a loop that took every step would cycle
        tau = sr.SiegelPoint(0.1 + 7477561613.005426j, 0.2 + 13242761716040.928j,
                             -0.3 + 2.3452931175160616e16j)
        assert tau.min_imag_eigenvalue() > 0.0
        assert condition_number_exact(tau.tau1.imag, tau.tau2.imag, tau.tau4.imag) > self.ILL_CONDITIONED
        with pytest.raises(sr.ConditioningError, match="lost precision"):
            sr.reduce_to_fundamental_domain(tau)

    @pytest.mark.parametrize("y", [(1.0, 0.50000001, 1e9), (1.0, 0.5 + 2.0 ** -50, 1e17)])
    def test_step_that_lowers_only_g12_is_taken(self, y):
        # 2 G12 just above G11 asks for a step by 1, which lowers G22 by less
        # than half an ulp: G22 rounds to itself but |G12| goes down
        assert congruence(*y, 1, -1, 0, 1)[2] == y[2]
        u = halfspace._minkowski_gl2(*y)
        assert u == (1, 1, 0, -1)
        g11, g12, g22 = gram_exact(*y, u)
        assert 0 <= 2 * g12 <= g11 <= g22
        res = sr.reduce_to_fundamental_domain(sr.SiegelPoint(*(1j * v for v in y)))
        assert minkowski_ok(res.reduced.imag)

    def test_tie_decided_by_rounding_ends_reduced(self):
        # A well-conditioned form whose G12 lands on +-G11 / 2 up to rounding:
        # steps by +-1 would flip G12 between 0.5 and -0.5 forever, so the
        # step that does not lower |G12| must not be taken
        y = (23.618443969079408, 19.118443969079415, 15.61844396907942)
        assert condition_number_exact(*y) < 1e3
        u = halfspace._minkowski_gl2(*y)
        assert u == (1, 4, -1, -5)
        g11, g12, g22 = gram_exact(*y, u)
        assert 0 <= 2 * g12 <= g11 <= g22
        tau = sr.SiegelPoint(*(1j * v for v in y))
        res = sr.reduce_to_fundamental_domain(tau)
        assert np.max(np.abs(sr.act(res.transform, tau).matrix - res.reduced.matrix)) <= 1e-13
        assert minkowski_ok(res.reduced.imag)

    def check_reduced_or_ill_conditioned(self, y1, y2, y4):
        """The float Gram matrix of the U returned is reduced, and so is the
        exact one up to the rounding bound, which is below G11.  Only a form
        past about 1/eps, or one whose loop ends with G11 below the rounding
        bound, raises ConditioningError."""
        try:
            u = halfspace._minkowski_gl2(y1, y2, y4)
        except sr.ConditioningError as exc:
            if condition_number_exact(y1, y2, y4) > self.ILL_CONDITIONED:
                return
            # the loop ran to its end, and only the rounding bound refused its U
            assert "rounding bound" in str(exc)
            u = minkowski_gl2_reference(y1, y2, y4)
            assert congruence(y1, y2, y4, *u)[0] <= gauss_rounding_bound(y1, y2, y4, u) * (1.0 + 1e-12)
            return
        assert u == minkowski_gl2_reference(y1, y2, y4)
        g11, g12, g22 = congruence(y1, y2, y4, *u)
        assert u[0] * u[3] - u[1] * u[2] in (1, -1)
        assert 0.0 <= 2.0 * g12 <= (1.0 + 1e-9) * g11 and g11 <= g22
        # each float entry is within half the bound of the exact one
        bound = gauss_rounding_bound(y1, y2, y4, u)
        assert g11 > bound * (1.0 - 1e-12)
        e11, e12, _ = gram_exact(y1, y2, y4, u)
        assert -bound <= 2 * e12 <= (1.0 + 1e-9) * e11 + bound

    @given(st.floats(-8, 2), st.floats(-8, 2), st.floats(0, 3.2), st.floats(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_skewed_forms_end_reduced_or_refused(self, log_l1, log_l2, angle, log_shear):
        # R^t diag(l) R sheared by [[1, k], [0, 1]]
        c, s, k = np.cos(angle), np.sin(angle), 10.0 ** log_shear
        r = np.array([[c, -s], [s, c]]) @ np.array([[1.0, k], [0.0, 1.0]])
        y = r.T @ np.diag([10.0 ** log_l1, 10.0 ** log_l2]) @ r
        y1, y2, y4 = y[0, 0], 0.5 * (y[0, 1] + y[1, 0]), y[1, 1]
        if halfspace._positive_definite(y1, y2, y4):
            self.check_reduced_or_ill_conditioned(y1, y2, y4)

    @given(st.floats(-3, 3), st.integers(-64, 64), st.booleans(), st.floats(0, 17),
           st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=300, deadline=None)
    def test_near_boundary_forms_end_reduced_or_refused(self, log_g11, ulps, negative, log_ratio, a, b):
        # G with 2 |G12| within 64 ulps of G11 and G22 / G11 up to 1e17,
        # moved by the unimodular [[1, a], [b, 1 + a b]] in floats
        g11 = 10.0 ** log_g11
        g12 = g11 * (0.5 + ulps * 2.0 ** -53) * (-1.0 if negative else 1.0)
        y = congruence(g11, g12, g11 * 10.0 ** log_ratio, 1, a, b, 1 + a * b)
        if halfspace._positive_definite(*y):
            self.check_reduced_or_ill_conditioned(*y)

    @pytest.mark.parametrize("y, u", [
        # R^t diag(l) R sheared by 10^5.93, as in test_skewed_forms_end_reduced_or_refused
        ((12.910549270601484, 10929670.863913298, 9252720600005.107), (-846569, -139683886, 1, 165)),
        # a near-boundary form moved by [[1, 2], [9, 19]], as in test_near_boundary_forms_end_reduced_or_refused
        ((314219731196.9583, 663352765860.2218, 1400411394593.752), (19, -458, -9, 217)),
    ], ids=["sheared", "near-boundary"])
    def test_rounding_bound_refuses_an_unreduced_result(self, y, u):
        # the loop ends on u, whose float G11 lies below its rounding bound,
        # and whose exact Gram matrix is far from reduced: 2 |G12| > 30 G11
        assert minkowski_gl2_reference(*y) == u
        assert congruence(*y, *u)[0] <= gauss_rounding_bound(*y, u)
        g11, g12, _ = gram_exact(*y, u)
        assert 2 * abs(g12) > 30 * g11
        with pytest.raises(sr.ConditioningError, match="rounding bound"):
            halfspace._minkowski_gl2(*y)
        with pytest.raises(sr.ConditioningError, match="rounding bound"):
            sr.reduce_to_fundamental_domain(sr.SiegelPoint(*(1j * v for v in y)))


def point_bits(p):
    """The six doubles of a point as bytes: equal bytes are equal bits."""
    return struct.pack("<6d", p.tau1.real, p.tau1.imag, p.tau2.real, p.tau2.imag, p.tau4.real, p.tau4.imag)


def reduction_outcome(reduce, tau):
    """Reduced point bits, witness rows and pass count, or the error type."""
    try:
        res = reduce(tau)
    except sr.SiegelRungeError as exc:
        return type(exc)
    return point_bits(res.reduced), res.transform.rows, res.iterations


def squeeze(p, scale):
    """p with Im(tau) scaled by scale."""
    return sr.SiegelPoint(*(complex(z.real, scale * z.imag) for z in (p.tau1, p.tau2, p.tau4)))


def reduction_inputs(point_seed, word_seed, n):
    """Domain points, their level-2 and Sp4(Z) images, and the points with
    Im scaled by 1e-2 to 1e-6."""
    rng = np.random.default_rng(word_seed)
    for p in sr.sample_reduced_points(n, seed=point_seed):
        yield p
        yield sr.act(sr.random_level2_matrix(rng), p)
        yield sr.act(sr.random_symplectic_matrix(rng), p)
        yield from (squeeze(p, 10.0 ** -e) for e in (2, 3, 4, 5, 6))


class TestSpecialisedReduction:
    """The reduction's translation, GL2 and scan steps against the generic
    loop of reduce_reference: the same bits, witness and pass count."""

    def test_matches_generic_loop(self):
        for tau in reduction_inputs(47, 53, 30):
            want = reduction_outcome(reduce_reference, tau)
            assert isinstance(want, tuple)
            assert reduction_outcome(sr.reduce_to_fundamental_domain, tau) == want

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_generic_loop_on_random_words(self, word_seed, point_seed):
        for tau in reduction_inputs(point_seed, word_seed, 1):
            want = reduction_outcome(reduce_reference, tau)
            assert reduction_outcome(sr.reduce_to_fundamental_domain, tau) == want

    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_coefficient_form(self, parts):
        t1, t2, t4 = complex(*parts[0:2]), complex(*parts[2:4]), complex(*parts[4:6])
        got = [abs(z) for z in _gottschling_scan(t1, t2, t4)]
        assert got == [abs(z) for z in gottschling_scan_by_coefficients(t1, t2, t4)]

    @pytest.mark.parametrize("t, t2, pair", [(-0.1 + 0.97j, -0.45 + 0.41j, [11, 12]),
                                             (0.45 + 0.82j, -0.12 + 0.38j, [1, 3]),
                                             (-0.3 + 0.74j, 0.31 + 0.37j, [5, 7])],
                             ids=["tau1-and-tau4", "minus-shifts", "plus-shifts"])
    def test_tied_determinants_take_the_first(self, t, t2, pair):
        # tau1 = tau4 gives the nineteen determinants the symmetry that swaps
        # the two, so the smallest is taken by a pair of Gottschling matrices
        # here: tau1 and tau4, det(tau + S) for S = diag(-1, 0) and
        # diag(0, -1), or for diag(0, 1) and diag(1, 0).  The reduction
        # promises the first of them, and the generic loop takes it
        tau = sr.SiegelPoint(t, t2, t)
        dets = [abs(z) for z in _gottschling_scan(t, t2, t)]
        assert [i for i, d in enumerate(dets) if d == min(dets)] == pair
        assert reduction_outcome(sr.reduce_to_fundamental_domain, tau) == reduction_outcome(reduce_reference, tau)

    def test_scan_matches_coefficient_form_on_reduction_inputs(self):
        for tau in reduction_inputs(59, 61, 10):
            entries = (tau.tau1, tau.tau2, tau.tau4)
            got = [abs(z) for z in _gottschling_scan(*entries)]
            assert got == [abs(z) for z in gottschling_scan_by_coefficients(*entries)]

    def test_reduced_point_and_cocycle_are_the_witness_action(self):
        tiny = [sr.SiegelPoint(y * 1j, 0, y * 1j) for y in (1e-40, 1e-60)]
        for tau in [*reduction_inputs(67, 71, 30), *tiny]:
            res = sr.reduce_to_fundamental_domain(tau)
            _, cocycle = halfspace._act_entries(res.transform.rows, tau.tau1, tau.tau2, tau.tau4)
            assert point_bits(res.reduced) == point_bits(sr.act(res.transform, tau))
            assert struct.pack("<2d", res.cocycle.real, res.cocycle.imag) == struct.pack(
                "<2d", cocycle.real, cocycle.imag)

    @pytest.mark.parametrize("scale", [1e-40, 1e-100])
    def test_witness_past_int64_stops_at_that_step(self, monkeypatch, scale):
        # the loop used to run on with big integers until the iterate
        # settled and refused the witness only on return
        largest = []
        step = halfspace._gottschling_step

        def recording_step(*args):
            image, rows = step(*args)
            largest.append(max(abs(x) for row in rows for x in row))
            return image, rows

        monkeypatch.setattr(halfspace, "_gottschling_step", recording_step)
        p = sr.sample_reduced_points(6, seed=3)[0]
        with pytest.raises(sr.ResourceLimitError, match="past int64"):
            sr.reduce_to_fundamental_domain(squeeze(p, scale))
        assert largest[-1] >= 2**63
        assert max(largest[:-1]) < 2**63

    def test_witness_past_int64_by_a_translation_stops_in_that_pass(self, monkeypatch):
        # the translation by -2e19 takes the witness past 2^63 in pass 1, which
        # takes no Gottschling step, so a guard after those steps only would
        # let pass 2 run before the refusal on return
        calls = []
        gl2 = halfspace._minkowski_gl2

        def counting_gl2(*args):
            calls.append(args)
            return gl2(*args)

        monkeypatch.setattr(halfspace, "_minkowski_gl2", counting_gl2)
        with pytest.raises(sr.ResourceLimitError, match="past int64"):
            sr.reduce_to_fundamental_domain(sr.SiegelPoint(2e19 + 1j, 0.1j, 1.2j))
        assert len(calls) == 1


#: Real parts with exact zeros of either sign, where the closed-form steps
#: and the generic action may differ in the sign of a zero.
REAL_PART = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(-3, 3))


@st.composite
def h2_entries(draw):
    """(t1, t2, t4) of a point of H2 with Im entries from 1e-3 to 1e3."""
    y1, y4 = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    y2 = draw(st.sampled_from([0.0, -0.0]) | st.floats(-0.999, 0.999)) * (y1 * y4) ** 0.5
    return complex(draw(REAL_PART), y1), complex(draw(REAL_PART), y2), complex(draw(REAL_PART), y4)


@st.composite
def reduced_entries(draw):
    """(t1, t2, t4) after the translation of a pass, with Im(tau) Minkowski
    reduced, 0 <= 2 y2 <= y1 <= y4, near the certificate's thresholds."""
    y1 = draw(st.floats(0.9, 3.0))
    y2 = draw(st.floats(0.0, 0.5)) * y1
    y4 = max(y1, (1.0 + y2 * y2) / y1) * draw(st.sampled_from([1.0]) | st.floats(1.0, 1.5))
    return tuple(complex(draw(st.floats(-0.5, 0.5)), y) for y in (y1, y2, y4))


class TestStepShortcuts:
    """The closed-form Gottschling steps, the certificate that skips the
    scan and the early exit of the Gauss reduction."""

    @given(st.integers(0, 18), h2_entries(),
           st.lists(st.integers(-2**40, 2**40), min_size=16, max_size=16))
    @settings(max_examples=400, deadline=None)
    def test_steps_match_the_generic_action(self, k, entries, flat):
        # == on complex numbers ignores the sign of a zero, and only that
        rows = tuple(tuple(flat[i:i + 4]) for i in range(0, 16, 4))
        g = gottschling_matrices()[k].rows
        try:
            want = halfspace._act_entries(g, *entries)[0]
        except sr.ConditioningError:
            with pytest.raises(sr.ConditioningError):
                halfspace._gottschling_step(k, *entries, rows)
            return
        image, got_rows = halfspace._gottschling_step(k, *entries, rows)
        assert image == want
        assert got_rows == halfspace._compose(g, rows)

    @pytest.mark.parametrize("k", [4, 11, 12])
    def test_tiny_point_steps_match_the_rescaled_action(self, k):
        # det tau = 1e-400 underflows to 0: the inversion by it would divide
        # by zero, and _act_entries rescales by 2^k instead.  The corners
        # divide by tau1 or tau4 alone, which does not underflow
        entries = (1e-200j, 0j, 1e-200j)
        g = gottschling_matrices()[k].rows
        identity = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        image, rows = halfspace._gottschling_step(k, *entries, identity)
        assert image == halfspace._act_entries(g, *entries)[0]
        assert rows == g
        if k == 4:
            assert entries[0] * entries[2] == 0

    def test_cancelling_determinant_raises(self):
        # det tau = 1 - y2^2 - 1 cancels to about 1e-14 of its products
        entries = (1j, complex(0.0, (1.0 - 1e-14) ** 0.5), 1j)
        assert abs(_gottschling_scan(*entries)[4]) < halfspace.CONDITION_EPS
        with pytest.raises(sr.ConditioningError):
            halfspace._gottschling_step(4, *entries, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_step_leaving_h2_is_refused_in_that_pass(self):
        # Im(tau) about 1e-13 with real parts -1/2: the first pass takes no
        # GL2 step or translation and then Gottschling matrix 11, whose
        # image has Im entries about 1e12 and rounds to an Im(tau) that is
        # not positive definite, though the exact image lies in H2
        tau = sr.SiegelPoint(3.6995216522530333e-13j, -0.5 + 1.467103563929655e-13j, -0.5 + 1.385250375289162e-12j)
        entries = (tau.tau1, tau.tau2, tau.tau4)
        assert halfspace._minkowski_gl2(*(t.imag for t in entries)) == (1, 0, 0, 1)
        dets = [abs(z) for z in _gottschling_scan(*entries)]
        assert dets.index(min(dets)) == 11
        image, _ = halfspace._gottschling_step(11, *entries, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        with pytest.raises(sr.InvalidInputError, match="not positive definite"):
            halfspace._check_entries(*image)
        with pytest.raises(sr.InvalidInputError, match="not positive definite"):
            sr.reduce_to_fundamental_domain(tau)

    @given(reduced_entries())
    @settings(max_examples=400, deadline=None)
    def test_certificate_implies_no_step(self, entries):
        if halfspace._certificate(*(t.imag for t in entries)):
            assert min(map(abs, _gottschling_scan(*entries))) >= 1.0 - halfspace._TOL

    #: Im(tau) = (y1, y2, y4) on each threshold of the certificate, and just past it.
    THRESHOLDS = {
        "y1 = 1": ((1.0, 0.25, 2.0), (np.nextafter(1.0, 0.0), 0.25, 2.0)),
        "2 y2 = y1": ((1.5, 0.75, 2.0), (1.5, np.nextafter(0.75, 1.0), 2.0)),
        "y1 = y4": ((2.0, 0.1, 2.0), (2.0, 0.1, np.nextafter(2.0, 0.0))),
        "det Y = 1": ((1.0, 0.25, 1.0625), (1.0, 0.25, np.nextafter(1.0625, 0.0))),
    }

    @pytest.mark.parametrize("name", THRESHOLDS)
    def test_certificate_thresholds(self, monkeypatch, name):
        at, past = self.THRESHOLDS[name]
        assert halfspace._certificate(*at)
        assert not halfspace._certificate(*past)
        scans = []
        scan = halfspace._gottschling_scan
        monkeypatch.setattr(halfspace, "_gottschling_scan", lambda *t: scans.append(t) or scan(*t))
        for y, count in ((at, 0), (past, 1)):
            scans.clear()
            # where the Gauss step takes none, the first pass is the last
            if halfspace._minkowski_gl2(*y) == (1, 0, 0, 1):
                res = sr.reduce_to_fundamental_domain(sr.SiegelPoint(*(1j * v for v in y)))
                assert (res.iterations, len(scans)) == (1, count)

    @pytest.mark.parametrize("y, u", [((1.0, -0.0, 2.0), (1, 0, 0, 1)),
                                      ((1.0, 0.5, 2.0), (1, 0, 0, 1)),
                                      ((1.5, 0.25, 1.5), (1, 0, 0, 1)),
                                      ((1.0, -1e-300, 2.0), (1, 0, 0, -1)),
                                      ((1.0, -0.5, 2.0), (1, 0, 0, -1)),
                                      ((1.0, 0.5000000001, 2.0), (1, 1, 0, -1)),
                                      ((2.0, 0.1, np.nextafter(2.0, 0.0)), (0, 1, 1, 0))],
                             ids=["y2=-0", "2y2=y1", "y1=y4", "y2<0", "2y2=-y1", "2y2>y1", "y1>y4"])
    def test_gauss_exit_is_the_loop_taking_no_step(self, y, u):
        # the first three return at once; the others run the loop
        assert halfspace._minkowski_gl2(*y) == u


def _with_off_diagonal(base, value):
    rows = [list(row) for row in base]
    rows[0][1] = rows[1][0] = value
    return rows


def _np_matrix(base):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(base)


#: Matrix arguments built from an n x n base given as nested lists: array
#: types, wrong shapes and containers, and odd entries at (0, 1) and (1, 0).
READER_GRID = {
    "tuple": lambda b: tuple(map(tuple, b)),
    "list": lambda b: [list(row) for row in b],
    "int64": lambda b: np.array(b).real.astype(np.int64),
    "float": lambda b: np.array(b).real.astype(float),
    "object": lambda b: np.array(b, dtype=object),
    "bool": lambda b: np.array(b).real.astype(bool),
    "complex": lambda b: np.array(b, dtype=complex),
    "np-matrix": _np_matrix,
    "numpy-scalar-entries": lambda b: [list(row) for row in np.array(b)],
    "numpy-scalar": lambda b: np.array(b)[0, 0],
    "0-d": lambda b: np.array(b[0][0]),
    "generator": lambda b: (row for row in b),
    "ragged": lambda b: [list(row) for row in b[:-1]] + [list(b[-1][:-1])],
    "1x1": lambda b: [[b[0][0]]],
    "2x3": lambda b: [[1, 0, 0], [0, 1, 0]],
    "4x4x1": lambda b: np.zeros((4, 4, 1), dtype=np.int64),
    "nxnx1": lambda b: [[[x] for x in row] for row in b],
    "flat-16": lambda b: list(range(16)),
    "flat-base": lambda b: [x for row in b for x in row],
    "string": lambda b: "ab",
    "string-rows": lambda b: ["1" * len(b)] * len(b),
    "string-entry": lambda b: _with_off_diagonal(b, "0.25+0.5j"),
    "none": lambda b: None,
    "none-entry": lambda b: _with_off_diagonal(b, None),
    "nan-entry": lambda b: _with_off_diagonal(b, float("nan")),
    "inf-entry": lambda b: _with_off_diagonal(b, float("inf")),
    "2^63-entry": lambda b: _with_off_diagonal(b, 2**63),
    "-2^63-entry": lambda b: _with_off_diagonal(b, -2**63),
    "float-2^63-entry": lambda b: _with_off_diagonal(b, 2.0**63),
    "huge-int-entry": lambda b: _with_off_diagonal(b, 10**400),
    "true-entry": lambda b: _with_off_diagonal(b, True),
    "half-entry": lambda b: _with_off_diagonal(b, 1.5),
    "set": lambda b: set(map(tuple, b)),
    "set-rows": lambda b: [set(row) for row in b],
    "dict": lambda b: dict.fromkeys(map(tuple, b)),
}

TAU_BASE = [[0.5 + 1j, 0.25 + 0.5j], [0.25 + 0.5j, -0.5 + 2j]]

#: Each reader as (new code, numpy reference, base matrix).
READERS = {
    "integer_rows": (_integer_rows, integer_rows_reference,
                     [[2, -1, -7, 3], [-1, -2, 2, 3], [0, 1, 1, -2], [-1, 0, 3, -1]]),
    "translation": (lambda b: sr.translation(b).rows, translation_reference, [[1, 2], [2, -3]]),
    "gl2_embedding": (lambda u: sr.gl2_embedding(u).rows, gl2_embedding_reference, [[2, 1], [1, 1]]),
    "from_matrix": (sr.SiegelPoint.from_matrix, from_matrix_reference, TAU_BASE),
}

#: Inputs on which the numpy reader leaked an exception that is not a
#: SiegelRungeError; the plain reader raises InvalidInputError on each.
NUMPY_LEAKS = {
    ("gl2_embedding", "string-entry"): TypeError,
    ("gl2_embedding", "none-entry"): TypeError,
    ("from_matrix", "generator"): TypeError,
    ("from_matrix", "ragged"): ValueError,
    ("from_matrix", "string"): ValueError,
    ("from_matrix", "huge-int-entry"): OverflowError,
    ("from_matrix", "set"): TypeError,
    ("from_matrix", "set-rows"): TypeError,
    ("from_matrix", "dict"): TypeError,
}

#: Inputs whose numeric strings numpy parsed into complex entries.  Entries
#: must be numbers, as for SiegelPoint and the integer readers, so these
#: now raise InvalidInputError.
NUMPY_PARSED_STRINGS = {("from_matrix", "string-entry")}


def reader_outcome(read, arg):
    """("ok", value), ("error", SiegelRungeError subclass) or ("leak", other exception type)."""
    try:
        return "ok", read(arg)
    except sr.SiegelRungeError as exc:
        return "error", type(exc)
    except Exception as exc:
        return "leak", type(exc)


def element_types(value):
    if isinstance(value, sr.SiegelPoint):
        return type(value.tau1), type(value.tau2), type(value.tau4)
    if isinstance(value, tuple):
        return tuple, tuple((type(row), tuple(map(type, row))) for row in value)
    return type(value)


class TestMatrixReader:
    @pytest.mark.parametrize("case", READER_GRID)
    @pytest.mark.parametrize("reader", READERS)
    def test_agrees_with_numpy_reader(self, reader, case):
        read, reference, base = READERS[reader]
        with warnings.catch_warnings():
            # numpy warns on inf - inf; outside the test suite that is no error
            warnings.simplefilter("ignore", RuntimeWarning)
            want = reader_outcome(reference, READER_GRID[case](base))
        got = reader_outcome(read, READER_GRID[case](base))
        if (reader, case) in NUMPY_LEAKS:
            assert want == ("leak", NUMPY_LEAKS[reader, case])
            assert got == ("error", sr.InvalidInputError)
        elif (reader, case) in NUMPY_PARSED_STRINGS:
            assert want[0] == "ok"
            assert got == ("error", sr.InvalidInputError)
        elif want[0] == "ok":
            assert got == want
            assert element_types(got[1]) == element_types(want[1])
        else:
            assert got == want
