"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 04 and 05 rest on oracles from ``oracles.py``:

* criterion 04 compares the near-zero coordinate sets along diag(i, iT) and
  diag(iT, iT) with sets built from products of one-variable series
  (``theta_1d``).  On the first path only Im(tau4) grows and exactly the
  four a2 = 1/2 coordinates decay; on the second the six a != 0 coordinates
  do;
* criterion 05 asserts sampled relation rank 5 with a cliff s5/s6 >= 1e4,
  and the same rank and cliff from the double-loop sums
  (``theta_2d_naive``).  The ten theta fourth powers satisfy five linear
  relations: their image is the Igusa quartic in a P^4.
"""

import math
import time

import numpy as np
from mpmath import mp

import siegel_runge as sr

from oracles import (
    EVEN_BITS,
    diagonal_fourth_powers,
    naive_fourth_powers,
    negation_orbit_divisor_count,
    small_indices,
    theta_1d,
)


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_odd_theta_vanishing():
    start = time.perf_counter()
    worst = 0.0
    for tau in sr.sample_reduced_points(20, seed=2026):
        for m in sr.odd_characteristics():
            worst = max(worst, abs(sr.theta_constant(m, tau, 5e-13).value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 5.0
    report(1, "odd theta constants vanish", ok, f"max |Theta| = {worst:.2e}, {elapsed:.2f}s")


def test_c02_diagonal_factorization():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        tau = sr.SiegelPoint(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
            0.0,
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
        )
        for m in sr.all_characteristics():
            got = sr.theta_constant(m, tau, 1e-11).value
            want = theta_1d(m.bits[0], m.bits[2], tau.tau1) * theta_1d(
                m.bits[1], m.bits[3], tau.tau4
            )
            worst = max(worst, abs(got - want))
    report(2, "diagonal points factor into 1-variable series", worst <= 1e-10,
           f"max deviation = {worst:.2e}")


def test_c03_product_locus_detection():
    product_zeros = sr.near_zero_coordinates(sr.psi(sr.SiegelPoint(1j, 0, 1j)))
    counts = {
        len(sr.near_zero_coordinates(sr.psi(tau)))
        for tau in sr.sample_reduced_points(50, seed=1)
    }
    ok = len(product_zeros) == 1 and counts == {0}
    report(3, "exactly one vanishing coordinate on the product locus, none generically",
           ok, f"product zeros = {sorted(product_zeros)}, generic counts = {sorted(counts)}")


def _decay_sets(path):
    """Library and oracle near-zero sets at T = 2, 5, 10, 20 along a diagonal path."""
    got, want = [], []
    for t in (2, 5, 10, 20):
        tau1, tau4 = path(t)
        got.append(sr.near_zero_coordinates(sr.psi(sr.SiegelPoint(tau1, 0, tau4))))
        want.append(small_indices(diagonal_fourth_powers(tau1, tau4), 1e-6))
    return got, want


def test_c04_boundary_decay():
    # Along diag(i, iT) only Im(tau4) grows, so only the a2 = 1/2 coordinates
    # decay; all six a != 0 coordinates decay once both entries grow.
    one_sided, one_sided_oracle = _decay_sets(lambda t: (1j, t * 1j))
    both, both_oracle = _decay_sets(lambda t: (t * 1j, t * 1j))
    a2_half = {i for i, bits in enumerate(EVEN_BITS) if bits[1] == 1}
    a_nonzero = {i for i, bits in enumerate(EVEN_BITS) if bits[:2] != (0, 0)}
    counts = [len(z) for z in one_sided]
    ok = (
        one_sided == one_sided_oracle
        and counts == sorted(counts)
        and one_sided[-1] == a2_half
        and both == both_oracle
        and both[-1] == a_nonzero
        and len(both[-1]) >= 6
    )
    report(4, "near-zero sets match the theta_1d oracle along diag(i, iT) and diag(iT, iT); "
              "at T=20 they are a2 = 1/2 and a != 0 (>= 6)",
           ok, f"diag(i, iT): {[sorted(z) for z in one_sided]}, "
               f"diag(iT, iT): {[sorted(z) for z in both]}")


def test_c05_relation_rank():
    start = time.perf_counter()
    taus = sr.sample_reduced_points(50, seed=1)
    points = [sr.psi(tau) for tau in taus]
    s = sr.relation_singular_values(points)
    rank = sr.relation_rank(points)
    elapsed = time.perf_counter() - start
    # oracle: double-loop sums, sup-normalized, on the first 12 of the same points
    rows = [naive_fourth_powers(tau.matrix, radius=8) for tau in taus[:12]]
    s_ref = np.linalg.svd(np.vstack([r / np.max(np.abs(r)) for r in rows]), compute_uv=False)
    rank_ref = int(np.sum(s_ref > 1e-6 * s_ref[0]))
    ok = (
        rank == 5 and s[4] / s[5] >= 1e4
        and rank_ref == 5 and s_ref[4] / s_ref[5] >= 1e4
        and elapsed <= 30.0
    )
    report(5, "sampled relation rank 5 with gap s5/s6 >= 1e4, as the double-loop oracle gives",
           ok, f"rank = {rank}, s5/s6 = {s[4]/s[5]:.2e}; oracle rank = {rank_ref}, "
               f"s5/s6 = {s_ref[4]/s_ref[5]:.2e}; {elapsed:.2f}s")


def test_c06_level2_invariance():
    rng = np.random.default_rng(6)
    taus = sr.sample_reduced_points(5, seed=3)
    worst = 0.0
    for _ in range(20):
        g = sr.random_level2_matrix(rng)
        for tau in taus:
            d = sr.projective_distance(sr.psi(sr.act(g, tau)), sr.psi(tau))
            worst = max(worst, d)
    report(6, "embedding is level-2 invariant (20 matrices x 5 points)",
           worst <= 1e-7, f"max projective distance = {worst:.2e}")


def test_c07_reduction_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    most_iterations = 0
    for tau0 in sr.sample_reduced_points(100, seed=11):
        g = sr.random_symplectic_matrix(rng)
        res = sr.reduce_to_fundamental_domain(sr.act(g, tau0))
        worst = max(worst, float(np.max(np.abs(res.reduced.matrix - tau0.matrix))))
        most_iterations = max(most_iterations, res.iterations)
    ok = worst <= 1e-8 and most_iterations <= 1000
    report(7, "100 scrambled points reduce back to their representative", ok,
           f"max entrywise error = {worst:.2e}, max iterations = {most_iterations}")


def test_c08_siegel_counts():
    ok = True
    for n in (2, 4, 6, 8, 10, 12):
        formula = sr.siegel_divisor_count(n)
        ok = ok and formula == n**4 // 2 + 2 == negation_orbit_divisor_count(n)
    ok = ok and sr.siegel_divisor_count(2) == 10 and sr.siegel_m_y(2) == 1
    report(8, "divisor counts match the enumeration oracle for n = 2..12", ok)


def test_c09_condition_strictness():
    ok = (
        sr.siegel_runge_condition(2, 9).holds
        and not sr.siegel_runge_condition(2, 10).holds
        and not sr.runge_condition(13, 10, 130).holds
        and sr.runge_condition(13, 9, 130).holds
    )
    report(9, "strict inequalities in the finiteness condition", ok)


def test_c10_bound_constants():
    mp.dps = 50
    rep_a = sr.bound_case_a(3, "rational")
    rep_b = sr.bound_case_b(0, 1, 1.0)
    ref_psi = float(4 * mp.pi + mp.mpf("6.14"))
    ref_fal = float(2 * mp.pi + 535 * mp.log(2 * mp.pi + 9))
    ok = (
        rep_a.condition_holds
        and rep_a.h_psi_bound == 10.75
        and rep_a.h_faltings_bound == 1070.0
        and rep_b.condition_holds
        and abs(rep_b.h_psi_bound - ref_psi) <= 1e-9
        and abs(rep_b.h_faltings_bound - ref_fal) <= 1e-9
    )
    report(10, "explicit bound constants", ok,
           f"case b: h_psi = {rep_b.h_psi_bound:.6f}, h_faltings = {rep_b.h_faltings_bound:.6f}")


def test_c11_heights():
    h_rat = sr.weil_height_rational([2, 4, 8])
    ok = abs(h_rat - math.log(4)) <= 1e-9
    ok = ok and sr.weil_height_gaussian([1, 1j]) == 0.0
    ok = ok and abs(sr.weil_height_gaussian([1 + 1j, 2]) - 0.5 * math.log(2)) <= 1e-12
    ok = ok and sr.weil_height_gaussian([2, 4, 8]) == sr.weil_height_rational([2, 4, 8])
    report(11, "Weil heights over Q and Q(i)", ok, f"h(2:4:8) = {h_rat:.10f}")


def test_c12_tube_membership():
    tau = sr.SiegelPoint(1j, 0, 1j)
    rejected = False
    try:
        sr.in_tube(tau, 0.5)
    except sr.InvalidInputError:
        rejected = True
    ok = sr.in_tube(tau, 0.9) is True and sr.in_tube(tau, 1.1) is False and rejected
    report(12, "tube membership and parameter domain", ok)
