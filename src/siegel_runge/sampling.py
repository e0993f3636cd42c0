"""Seeded generation of test points and group elements."""

from __future__ import annotations

import numpy as np

from .errors import InconsistencyError, InvalidInputError, _integral
from .halfspace import (
    J,
    SiegelPoint,
    SymplecticMatrix,
    gl2_embedding,
    is_level2,
    reduce_to_fundamental_domain,
    translation,
)


_IDENTITY = SymplecticMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

#: The GL2(Z) generators of random_symplectic_matrix's words.
_UNITS = tuple(map(gl2_embedding, ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]])))


def sample_reduced_points(n: int, seed: int) -> list[SiegelPoint]:
    """n deterministic pseudo-random fundamental-domain points.

    Each draw starts from Im(tau) = I + small random positive semidefinite
    perturbation and Re(tau) uniform in [-1/2, 1/2]^3, then is reduced.  The
    same seed, an integer >= 0, reproduces the identical list.
    """
    n = _integral(n, 1, "need n >= 1 sample points")
    rng = np.random.default_rng(_integral(seed, 0, "seed must be an integer >= 0"))
    points = []
    for _ in range(n):
        a = rng.normal(size=(2, 2))
        bump = a @ a.T
        bump /= max(1.0, np.linalg.norm(bump, 2))
        # rank-one part keeps Im(tau2) >= 0.1: theta fourth powers flatten
        # near the product divisors, so samples meant to be generic must not
        # drift toward tau2 = 0.
        flat = rng.uniform(0.18, 0.32)
        y = np.eye(2) + rng.uniform(0.02, 0.08) * bump + flat * np.ones((2, 2))
        x1, x2, x4 = rng.uniform(-0.5, 0.5, size=3)
        tau = SiegelPoint(
            complex(x1, y[0, 0]), complex(x2, y[0, 1]), complex(x4, y[1, 1])
        )
        points.append(reduce_to_fundamental_domain(tau).reduced)
    return points


def _random_sym_block(rng, lo: int, hi: int) -> np.ndarray:
    b = rng.integers(lo, hi + 1, size=(2, 2))
    b[1, 0] = b[0, 1]
    return b


def random_symplectic_matrix(rng, max_word: int = 8, entry_bound: int | None = None) -> SymplecticMatrix:
    """Random word in J, integer translations and GL2(Z) embeddings.

    With ``entry_bound`` set, words are redrawn until all entries fit.
    """
    max_word = _integral(max_word, 1, "max_word must be an integer >= 1")
    entry_bound = None if entry_bound is None else _integral(entry_bound, 1, "entry_bound must be an integer >= 1")
    for _ in range(1000):
        g = _IDENTITY
        for _ in range(int(rng.integers(1, max_word + 1))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                g = J @ g
            elif kind == 1:
                g = translation(_random_sym_block(rng, -1, 1)) @ g
            else:
                g = _UNITS[int(rng.integers(0, len(_UNITS)))] @ g
        if entry_bound is None or max(abs(x) for row in g.rows for x in row) <= entry_bound:
            return g
    raise InvalidInputError(f"could not draw a symplectic word within entry bound {entry_bound}")


def random_level2_matrix(rng, max_word: int = 12, entry_bound: int = 32) -> SymplecticMatrix:
    """Random element of the level-2 congruence subgroup.

    Words in upper and lower translations by even symmetric blocks; such
    products are congruent to the identity mod 2 by construction, which a
    final check confirms.  Entries are capped by redrawing: huge
    cocycle factors would push Im(gamma.tau) so low that theta sums become
    needlessly expensive.
    """
    max_word = _integral(max_word, 1, "max_word must be an integer >= 1")
    entry_bound = _integral(entry_bound, 1, "entry_bound must be an integer >= 1")
    for _ in range(1000):
        g = _IDENTITY
        for _ in range(int(rng.integers(1, max_word + 1))):
            b = 2 * _random_sym_block(rng, -1, 1)
            step = translation(b)
            if rng.integers(0, 2):
                step = J @ step @ J.inverse()
            g = step @ g
        if max(abs(x) for row in g.rows for x in row) <= entry_bound:
            if not is_level2(g):
                raise InconsistencyError(f"a word in even translations is not level 2: {g.rows}")
            return g
    raise InvalidInputError(f"could not draw a level-2 word within entry bound {entry_bound}")
