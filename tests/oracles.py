"""Independent reference computations backing the test expectations.

Everything here deliberately avoids the library's code paths: plain double
loops for theta sums, a Hermite-form lattice index for Gaussian content, and
literal orbit enumeration for the divisor counts.  The one exception is
reduce_reference, the generic form of the reduction loop built from the
library's own action and product, against which the specialised steps of
reduce_to_fundamental_domain must agree bit for bit.  The numpy matrix
readers at the end are the ones halfspace used before it read matrix
arguments in plain Python; they keep the library's integrality check and
row builders.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from siegel_runge import halfspace as hs
from siegel_runge.errors import InvalidInputError, NonConvergenceError, ResourceLimitError, _integral


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


def theta_2d_symmetric(bits, tau_mat, radius: int) -> complex:
    """Plain double-loop genus-2 theta sum in raster order over the box
    |n_i + a_i| <= radius + 1/2, which is symmetric under n + a -> -(n + a)."""
    total = 0j
    for n1 in range(-radius - bits[0], radius + 1):
        for n2 in range(-radius - bits[1], radius + 1):
            v1, v2 = n1 + bits[0] / 2.0, n2 + bits[1] / 2.0
            q = v1 * v1 * tau_mat[0, 0] + 2 * v1 * v2 * tau_mat[0, 1] + v2 * v2 * tau_mat[1, 1]
            total += (-1) ** ((n1 * bits[2] + n2 * bits[3]) % 2) * np.exp(1j * np.pi * q)
    return complex(total)


def theta_2d_disk(bits, tau_mat, radius: int, s: float) -> complex:
    """theta_2d_symmetric restricted to the disk |n + a|^2 <= s: the double
    loop over {|n_i + a_i| <= radius + 1/2} with |n + a|^2 <= s."""
    total = 0j
    for n1 in range(-radius - bits[0], radius + 1):
        for n2 in range(-radius - bits[1], radius + 1):
            v1, v2 = n1 + bits[0] / 2.0, n2 + bits[1] / 2.0
            if v1 * v1 + v2 * v2 <= s:
                q = v1 * v1 * tau_mat[0, 0] + 2 * v1 * v2 * tau_mat[0, 1] + v2 * v2 * tau_mat[1, 1]
                total += (-1) ** ((n1 * bits[2] + n2 * bits[3]) % 2) * np.exp(1j * np.pi * q)
    return complex(total)


def half_box_mass_outside(y_mat, radius: int, s: float) -> float:
    """2 sum exp(-pi v^t Y v) over the half box v1 >= 0 of the points v of
    (Z/2)^2 with |v_i| <= radius + 1/2 and |v|^2 > s, all four shifts at
    once: a bound on what the disk |v|^2 <= s leaves out of each sum."""
    total = 0.0
    for i in range(2 * radius + 2):
        for j in range(-2 * radius - 1, 2 * radius + 2):
            v1, v2 = i / 2.0, j / 2.0
            if v1 * v1 + v2 * v2 > s:
                total += 2.0 * math.exp(-math.pi * (v1 * v1 * y_mat[0, 0] + 2 * v1 * v2 * y_mat[0, 1]
                                                    + v2 * v2 * y_mat[1, 1]))
    return total


#: Even characteristic bits (a1, a2, b1, b2) in lexicographic order.
EVEN_BITS = tuple(
    bits
    for bits in itertools.product((0, 1), repeat=4)
    if (bits[0] * bits[2] + bits[1] * bits[3]) % 2 == 0
)


def half_box_columns(radius: int) -> list[tuple]:
    """The terms of the half box v1 >= 0 of the points v of (Z/2)^2 with
    |v_i| <= radius + 1/2, one tuple each: pi (v1^2, 2 v1 v2, v2^2), then the
    coefficient of exp(i pi v^t tau v) in each of the ten even sums in
    EVEN_BITS order, its phase (-1)^(n.b) at v = n + a times 2 (1 on the row
    v1 = 0), or 0 where the shift a of v is not the characteristic's."""
    columns = []
    for i in range(2 * radius + 2):
        for j in range(-2 * radius - 1, 2 * radius + 2):
            v1, v2 = i / 2.0, j / 2.0
            signs = tuple(
                float((1 if i == 0 else 2) * (-1) ** (((i - a1) // 2 * b1 + (j - a2) // 2 * b2) % 2))
                if (i % 2, j % 2) == (a1, a2) else 0.0
                for a1, a2, b1, b2 in EVEN_BITS
            )
            columns.append((math.pi * (v1 * v1), math.pi * (2.0 * v1 * v2), math.pi * (v2 * v2)) + signs)
    return columns


def duplication_squares(sums) -> np.ndarray:
    """The ten even theta_m(tau)^2 in EVEN_BITS order from the four
    sums[c1, c2] = theta_(c, 0)(2 tau), c = (c1, c2) / 2, by the duplication
    formula theta_(a, b)(tau)^2 = sum over c of (-1)^(4 b.c) theta_(c, 0)(2 tau)
    theta_(c + a, 0)(2 tau), with c + a taken mod 1, term by term.  A fault that
    scales all four sums alike scales all ten squares alike."""
    return np.array([sum((-1) ** (c1 * b1 + c2 * b2) * sums[c1, c2] * sums[c1 ^ a1, c2 ^ a2]
                         for c1, c2 in itertools.product((0, 1), repeat=2))
                     for a1, a2, b1, b2 in EVEN_BITS])


def diagonal_fourth_powers(tau1: complex, tau4: complex) -> np.ndarray:
    """Ten even theta fourth powers at diag(tau1, tau4) as 1-variable products."""
    return np.array([
        (theta_1d(a1, b1, tau1) * theta_1d(a2, b2, tau4)) ** 4
        for a1, a2, b1, b2 in EVEN_BITS
    ])


def jacobi_fourth_powers(y1: float, y4: float) -> np.ndarray:
    """Ten even theta fourth powers at diag(i y1, i y4) from the Jacobi
    inversion theta_ab(i y) = y^(-1/2) theta_ba(i / y) on each axis, which
    stays exact for tiny y, where the series at i y converges slowly."""
    return np.array([
        (theta_1d(b1, a1, 1j / y1) * theta_1d(b2, a2, 1j / y4)) ** 4 / (y1 * y4) ** 2
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


J4 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=object)


def symplectic_by_products(m) -> bool:
    """M^t J M == J by numpy products of exact object arrays; the library
    tests the six symplectic-form values of pairs of rows instead."""
    a = np.asarray(m, dtype=object)
    return bool(np.array_equal(a.T @ J4 @ a, J4))


def symplectic_inverse(m) -> np.ndarray:
    """-J M^t J, the inverse of a symplectic M, by numpy products; the
    library writes the blocks of the inverse out directly."""
    return -J4 @ np.asarray(m, dtype=object).T @ J4


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


def gram_exact(y1: float, y2: float, y4: float, u) -> tuple:
    """(G11, G12, G22) of G = U^t Y U in exact rational arithmetic of the
    float entries of Y = [[y1, y2], [y2, y4]]."""
    a, b, d = Fraction(y1), Fraction(y2), Fraction(y4)
    u00, u01, u10, u11 = u
    return (u00 * u00 * a + 2 * u00 * u10 * b + u10 * u10 * d,
            u00 * u01 * a + (u00 * u11 + u10 * u01) * b + u10 * u11 * d,
            u01 * u01 * a + 2 * u01 * u11 * b + u11 * u11 * d)


def condition_number_exact(y1: float, y2: float, y4: float) -> float:
    """(trace Y)^2 / det Y of the float entries taken exactly, which is
    within a factor 4 of lambda_max / lambda_min; inf unless det Y > 0."""
    a, b, d = Fraction(y1), Fraction(y2), Fraction(y4)
    det = a * d - b * b
    return float((a + d) ** 2 / det) if det > 0 else math.inf


def gottschling_coefficients() -> tuple:
    """(det C, p1, p2, p4, det D) of each Gottschling matrix, with
    det(C tau + D) = det C det tau + p1 tau1 + p2 tau2 + p4 tau4 + det D for
    symmetric tau, read off the matrices' blocks."""
    return tuple(
        (c00 * c11 - c01 * c10, c00 * d11 - c10 * d01, c01 * d11 + c10 * d00 - c00 * d10 - c11 * d01,
         c11 * d00 - c01 * d10, d00 * d11 - d01 * d10)
        for _, _, (c00, c01, d00, d01), (c10, c11, d10, d11) in (g.rows for g in hs.gottschling_matrices())
    )


def gottschling_scan_by_coefficients(t1: complex, t2: complex, t4: complex) -> list[complex]:
    """The nineteen det(C tau + D) from the coefficient form, every term kept."""
    det_tau = t1 * t4 - t2 * t2
    return [dc * det_tau + p1 * t1 + p2 * t2 + p4 * t4 + dd
            for dc, p1, p2, p4, dd in gottschling_coefficients()]


def reduce_reference(tau):
    """The reduction loop in its generic form: every step, GL2, translation
    and Gottschling alike, applies its matrix through the full fractional
    linear action and composes the witness by a full 4x4 product, and the
    scan uses the coefficient form.  Same passes, step order, tolerance and
    first-minimum rule as reduce_to_fundamental_domain; the witness is
    checked against int64 only on return, and the result carries its image
    of tau and cocycle from one _act_entries at tau."""
    def step(g, point, total):
        point = hs._act_entries(g, *point)[0]
        hs._check_entries(*point)
        return point, hs._compose(g, total)

    point = (tau.tau1, tau.tau2, tau.tau4)
    total = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    iterations = 0
    for _ in range(hs._MAX_ITER):
        iterations += 1
        changed = False

        u = hs._minkowski_gl2(point[0].imag, point[1].imag, point[2].imag)
        if u != (1, 0, 0, 1):
            point, total = step(hs._gl2_rows(*u), point, total)
            changed = True

        b = tuple(-round(z.real) for z in point)
        if b != (0, 0, 0):
            point, total = step(hs._translation_rows(*b), point, total)
            changed = True

        vals = [abs(z) for z in gottschling_scan_by_coefficients(*point)]
        low = min(vals)
        if low < 1.0 - hs._TOL:
            point, total = step(hs.gottschling_matrices()[vals.index(low)].rows, point, total)
            changed = True

        if not changed:
            transform = hs.SymplecticMatrix(total)
            image, cocycle = hs._act_entries(total, tau.tau1, tau.tau2, tau.tau4)
            return hs.ReductionResult(hs.SiegelPoint(*image), transform, iterations, cocycle)

    raise NonConvergenceError(f"reduction did not settle in {hs._MAX_ITER} passes")


def integer_rows_reference(m) -> tuple:
    """Rows of a 4x4 integer matrix read through a numpy object array."""
    a = np.asarray(m, dtype=object)
    if a.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 matrix, got shape {a.shape}")
    flat = [x if type(x) is int else _integral(x) for x in a.ravel().tolist()]
    if max(map(abs, flat)) >= 2**63:
        raise ResourceLimitError("a matrix entry of magnitude 2^63 or more is past int64")
    return tuple(flat[0:4]), tuple(flat[4:8]), tuple(flat[8:12]), tuple(flat[12:16])


def translation_reference(b) -> tuple:
    """Rows of the shift by B, read through a numpy object array."""
    bm = np.asarray(b, dtype=object)
    if bm.shape != (2, 2) or bm[0, 1] != bm[1, 0]:
        raise InvalidInputError("translation block must be symmetric 2x2 integer")
    return integer_rows_reference(hs._translation_rows(bm[0, 0], bm[0, 1], bm[1, 1]))


def gl2_embedding_reference(u) -> tuple:
    """Rows of the embedding of U in GL2(Z), read through a numpy object array."""
    um = np.asarray(u, dtype=object)
    if um.shape != (2, 2) or um[0, 0] * um[1, 1] - um[0, 1] * um[1, 0] not in (1, -1):
        raise InvalidInputError("matrix is not in GL2(Z)")
    return integer_rows_reference(hs._gl2_rows(*um.flat))


def from_matrix_reference(tau):
    """SiegelPoint of a symmetric 2x2 matrix read through a complex numpy array."""
    m = np.asarray(tau, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = max(1.0, np.max(np.abs(m)))
    if abs(m[0, 1] - m[1, 0]) > hs._SYM_TOL * scale:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    off = 0.5 * (m[0, 1] + m[1, 0])
    return hs.SiegelPoint(m[0, 0], off, m[1, 1])
