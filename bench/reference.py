"""Reference values the benchmark checks the library against.

The theta oracle is a plain double loop over the lattice box, written from
the series definition in ``siegel_runge.theta`` and sharing no code with it:

    Theta_m(tau) = sum_n exp(i pi (n+a)^t tau (n+a)) (-1)^(2 n.b).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: The even characteristics as numerator bits (a1, a2, b1, b2), in
#: lexicographic order: the coordinate order of psi.
EVEN_BITS = tuple(
    (a1, a2, b1, b2)
    for a1 in (0, 1) for a2 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
    if (a1 * b1 + a2 * b2) % 2 == 0
)

#: Coordinate of psi that vanishes on the product locus tau2 = 0: there the
#: constant factors into two genus-1 constants with odd characteristic.
PRODUCT_ZERO_INDEX = EVEN_BITS.index((1, 1, 1, 1))

#: Box radius of the oracle.  On the fundamental domain the least eigenvalue
#: of Im(tau) is at least sqrt(3)/4, so every term with max|n_i| > 8 is below
#: exp(-pi (sqrt(3)/4) 7.3^2) ~ 1e-31.
ORACLE_RADIUS = 8


def theta_fourth_oracle(tau1: complex, tau2: complex, tau4: complex) -> np.ndarray:
    """Theta_m(tau)^4 for the ten even characteristics, by a double loop."""
    sums = dict.fromkeys(EVEN_BITS, 0j)
    for n1 in range(-ORACLE_RADIUS, ORACLE_RADIUS + 1):
        for n2 in range(-ORACLE_RADIUS, ORACLE_RADIUS + 1):
            for a1 in (0, 1):
                for a2 in (0, 1):
                    v1, v2 = n1 + a1 / 2, n2 + a2 / 2
                    quad = v1 * v1 * tau1 + 2 * v1 * v2 * tau2 + v2 * v2 * tau4
                    term = cmath.exp(1j * math.pi * quad)
                    for bits in EVEN_BITS:
                        if bits[:2] == (a1, a2):
                            sign = -1 if (n1 * bits[2] + n2 * bits[3]) % 2 else 1
                            sums[bits] += sign * term
    return np.array([sums[b] ** 4 for b in EVEN_BITS])


def projective_distance(p: np.ndarray, q: np.ndarray) -> float:
    """sigma_2 / sigma_1 of the two stacked unit-norm coordinate rows."""
    rows = np.vstack([p / np.linalg.norm(p), q / np.linalg.norm(q)])
    s = np.linalg.svd(rows, compute_uv=False)
    return float(s[1] / s[0])
