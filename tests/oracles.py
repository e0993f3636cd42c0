"""Independent reference computations backing the test expectations.

Everything here deliberately avoids the library's code paths: plain double
loops for theta sums, a Hermite-form lattice index for Gaussian content, and
literal orbit enumeration for the divisor counts.
"""

import itertools
import math

import numpy as np


def theta_1d(a_bit: int, b_bit: int, w: complex, radius: int = 40) -> complex:
    """One-variable series sum_n exp(i pi (n + a)^2 w) (-1)^(n b_bit)."""
    a = a_bit / 2.0
    total = 0j
    for n in range(-radius, radius + 1):
        total += (-1) ** ((n * b_bit) % 2) * np.exp(1j * np.pi * (n + a) ** 2 * w)
    return complex(total)


def theta_2d_naive(bits, tau_mat, radius: int = 25) -> complex:
    """Plain double-loop genus-2 theta sum in raster order."""
    a1, a2 = bits[0] / 2.0, bits[1] / 2.0
    b1, b2 = bits[2], bits[3]
    total = 0j
    for n1 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            v1, v2 = n1 + a1, n2 + a2
            q = v1 * v1 * tau_mat[0, 0] + 2 * v1 * v2 * tau_mat[0, 1] + v2 * v2 * tau_mat[1, 1]
            total += (-1) ** ((n1 * b1 + n2 * b2) % 2) * np.exp(1j * np.pi * q)
    return complex(total)


#: Even characteristic bits (a1, a2, b1, b2) in lexicographic order.
EVEN_BITS = tuple(
    bits
    for bits in itertools.product((0, 1), repeat=4)
    if (bits[0] * bits[2] + bits[1] * bits[3]) % 2 == 0
)


def diagonal_fourth_powers(tau1: complex, tau4: complex) -> np.ndarray:
    """Ten even theta fourth powers at diag(tau1, tau4) as 1-variable products."""
    return np.array([
        (theta_1d(a1, b1, tau1) * theta_1d(a2, b2, tau4)) ** 4
        for a1, a2, b1, b2 in EVEN_BITS
    ])


def naive_fourth_powers(tau_mat, radius: int = 25) -> np.ndarray:
    """Ten even theta fourth powers from the double-loop sum."""
    return np.array([theta_2d_naive(bits, tau_mat, radius) ** 4 for bits in EVEN_BITS])


def act_solve(gamma, tau_mat) -> np.ndarray:
    """(A tau + B)(C tau + D)^-1 on 2x2 arrays by a LAPACK solve on the
    transposed system, re-symmetrized; the library uses a closed 2x2 form."""
    g = np.asarray(gamma)
    a, b, c, d = g[:2, :2], g[:2, 2:], g[2:, :2], g[2:, 2:]
    t = np.asarray(tau_mat, dtype=complex)
    res = np.linalg.solve((c @ t + d).T, (a @ t + b).T).T
    return 0.5 * (res + res.T)


def small_indices(coords, rel_tol: float) -> set[int]:
    """Indices i with |coords[i]| <= rel_tol * max|coords|."""
    mags = np.abs(coords)
    return {i for i, m in enumerate(mags) if m <= rel_tol * mags.max()}


def tail_abs_sum(bits, y_mat, radius: int, extra: int = 40) -> float:
    """Sum of actual term magnitudes over radius < max|n| <= radius + extra."""
    a1, a2 = bits[0] / 2.0, bits[1] / 2.0
    total = 0.0
    for n1 in range(-(radius + extra), radius + extra + 1):
        for n2 in range(-(radius + extra), radius + extra + 1):
            if max(abs(n1), abs(n2)) <= radius:
                continue
            v1, v2 = n1 + a1, n2 + a2
            q = v1 * v1 * y_mat[0, 0] + 2 * v1 * v2 * y_mat[0, 1] + v2 * v2 * y_mat[1, 1]
            total += math.exp(-math.pi * q)
    return total


def plain_truncation_radii(bound, y_min: float, tols, cap: int = 10_000) -> list:
    """For each tol the first r = 1, 2, ..., cap with bound(r, y_min) <= tol,
    or None past cap: the plain upward search, one scan shared by all tols.

    The tols still open at radius r are the smallest ones, so those that
    bound(r, y_min) meets are popped from the top of the sorted list."""
    radii = [None] * len(tols)
    pending = sorted(range(len(tols)), key=lambda i: tols[i])
    for r in range(1, cap + 1):
        if not pending:
            break
        b = bound(r, y_min)
        while pending and b <= tols[pending[-1]]:
            radii[pending.pop()] = r
    return radii


def _hnf_index_2d(vectors) -> int:
    """Index in Z^2 of the sublattice generated by integer vectors."""
    rows = [list(v) for v in vectors if v != (0, 0)]
    # clear the first column down to a single pivot by paired Euclid steps
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        a, b = nz[0], nz[1]
        q = b[0] // a[0]
        b[0] -= q * a[0]
        b[1] -= q * a[1]
        rows = [r for r in rows if r[0] != 0 or r[1] != 0]
    pivot = next((r for r in rows if r[0] != 0), None)
    assert pivot is not None, "lattice is not full rank"
    g = 0
    for r in rows:
        if r[0] == 0:
            g = math.gcd(g, r[1])
    assert g != 0, "lattice is not full rank"
    return abs(pivot[0] * g)


def gaussian_height_via_ideal_norm(coords) -> float:
    """Weil height through the content-ideal norm, no gcd computation.

    The Z-lattice spanned by all c and i*c inside Z[i] = Z^2 has index equal
    to the norm of the content ideal, so the height is
    log max|c| - (1/2) log N(content).
    """
    vecs = []
    for (x, y) in coords:
        vecs.append((x, y))
        vecs.append((-y, x))
    norm_content = _hnf_index_2d(vecs)
    max_abs = max(math.hypot(x, y) for x, y in coords)
    return math.log(max_abs) - 0.5 * math.log(norm_content)


def negation_orbit_divisor_count(n: int) -> int:
    """Orbits of (Z/n)^4 under v ~ -v, minus the six trivial classes.

    The trivial classes are the odd characteristics scaled by n/2; they are
    2-torsion, so each is a singleton orbit.
    """
    seen = set()
    count = 0
    for v in itertools.product(range(n), repeat=4):
        if v in seen:
            continue
        count += 1
        seen.add(v)
        seen.add(tuple((-x) % n for x in v))
    odd_bits = [
        bits
        for bits in itertools.product((0, 1), repeat=4)
        if (bits[0] * bits[2] + bits[1] * bits[3]) % 2 == 1
    ]
    trivial = {tuple((n // 2) * b for b in bits) for bits in odd_bits}
    assert len(trivial) == 6
    return count - len(trivial)
