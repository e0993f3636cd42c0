"""Seeded benchmark inputs, generated without the library's own samplers.

Everything here is plain numpy: a rejection sampler over the Sp4(Z)
fundamental domain, integer symplectic words, the fractional linear action
and the domain checker.  Keeping them out of ``siegel_runge`` means a change
to ``sampling.py`` or to the reduction cannot change what the benchmark
measures or how it judges the output.

Points are held as complex arrays of shape (..., 3) with entries
(tau1, tau2, tau4); symplectic matrices as int64 arrays of shape (..., 4, 4).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0

#: Largest Im entry of sampled domain points.  It stays below the library's
#: tube cutoff 2, where vanishing-pattern classification is meaningful.
Y_MAX = 1.9

#: Generic points keep Im(tau2) at least this far from the product locus
#: tau2 = 0, so that no coordinate of psi is near zero on them.
GENERIC_Y2_MIN = 0.2

#: Stratified samples pick every OVERSAMPLE-th point of a larger pool.
OVERSAMPLE = 16

#: Level-2 words: up to 12 steps, entries at most 32, as the library's
#: random_level2_matrix draws them.
LEVEL2_MAX_WORD = 12
LEVEL2_ENTRY_BOUND = 32

#: Scrambling words: up to 8 generators, as random_symplectic_matrix.
SCRAMBLE_MAX_WORD = 8


def matrices(points: np.ndarray) -> np.ndarray:
    """(..., 3) entries -> (..., 2, 2) symmetric matrices."""
    t1, t2, t4 = points[..., 0], points[..., 1], points[..., 2]
    return np.stack([np.stack([t1, t2], -1), np.stack([t2, t4], -1)], -2)


def entries(mats: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices -> (..., 3) entries, averaging the off-diagonal."""
    off = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    return np.stack([mats[..., 0, 0], off, mats[..., 1, 1]], -1)


def act(gammas: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(A tau + B)(C tau + D)^-1, broadcast over leading axes."""
    g = gammas.astype(complex)
    t = matrices(points)
    a, b, c, d = g[..., :2, :2], g[..., :2, 2:], g[..., 2:, :2], g[..., 2:, 2:]
    num = a @ t + b
    den = c @ t + d
    # X = num den^-1  <=>  den^T X^T = num^T
    res = np.swapaxes(np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
    return entries(res)


def min_imag_eigenvalue(points: np.ndarray) -> np.ndarray:
    y1, y2, y4 = points[..., 0].imag, points[..., 1].imag, points[..., 2].imag
    return 0.5 * (y1 + y4 - np.hypot(y1 - y4, 2.0 * y2))


def gottschling_dets(points: np.ndarray) -> np.ndarray:
    """|det(C tau + D)| for the nineteen boundary conditions, shape (..., 19).

    In order: det(tau + S) for the nine diagonal S with entries in {-1,0,1};
    det(tau + S) for S = [[0,e],[e,0]], e = +-1; tau1; tau4; and
    tau1 + 2e tau2 + tau4 + d for e = +-1, d in {0, 1, -1}.
    """
    t1, t2, t4 = points[..., 0], points[..., 1], points[..., 2]
    cols = [(t1 + s1) * (t4 + s2) - t2 * t2 for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)]
    cols += [t1 * t4 - (t2 + e) ** 2 for e in (1, -1)]
    cols += [t1, t4]
    cols += [t1 + 2 * e * t2 + t4 + d for e in (1, -1) for d in (0, 1, -1)]
    return np.abs(np.stack(cols, -1))


def domain_violation(points: np.ndarray) -> np.ndarray:
    """How far each point is outside the fundamental domain (0 if inside).

    The domain is |Re tau_ij| <= 1/2, Minkowski reduction
    0 <= 2 Im tau2 <= Im tau1 <= Im tau4, and all nineteen Gottschling
    determinants of modulus at least 1.
    """
    y1, y2, y4 = points[..., 0].imag, points[..., 1].imag, points[..., 2].imag
    parts = [
        np.max(np.abs(points.real), axis=-1) - 0.5,
        -y2,
        2.0 * y2 - y1,
        y1 - y4,
        1.0 - np.min(gottschling_dets(points), axis=-1),
    ]
    return np.maximum(0.0, np.max(np.stack(parts, -1), axis=-1))


def sample_domain(rng: np.random.Generator, n: int, product: bool = False) -> np.ndarray:
    """n points drawn uniformly from the fundamental domain, Im entries <= Y_MAX.

    With ``product`` the points lie on the product locus tau2 = 0; without,
    Im(tau2) >= GENERIC_Y2_MIN.  Rejection sampling: draw Re uniformly from
    [-1/2, 1/2]^3 and Im uniformly from the Minkowski-reduced box, keep the
    draws that meet all nineteen Gottschling conditions.
    """
    kept: list[np.ndarray] = []
    have = 0
    while have < n:
        m = 4 * n
        x = rng.uniform(-0.5, 0.5, size=(m, 3))
        y = np.sort(rng.uniform(SQRT3_2, Y_MAX, size=(m, 2)), axis=1)
        y2 = rng.uniform(GENERIC_Y2_MIN, Y_MAX / 2.0, size=m)
        pts = np.empty((m, 3), dtype=complex)
        pts[:, 0] = x[:, 0] + 1j * y[:, 0]
        pts[:, 1] = x[:, 1] + 1j * y2
        pts[:, 2] = x[:, 2] + 1j * y[:, 1]
        if product:
            pts[:, 1] = 0.0
        ok = domain_violation(pts) == 0.0
        kept.append(pts[ok])
        have += int(ok.sum())
    return np.concatenate(kept)[:n]


def sample_domain_stratified(rng: np.random.Generator, n: int, product: bool = False) -> np.ndarray:
    """n domain points at evenly spaced ranks of y_min in a pool OVERSAMPLE
    times larger, in random order.

    The least eigenvalue y_min of Im(tau) sets the theta radius, so this
    keeps the mix of radii nearly the same from seed to seed.
    """
    pool = sample_domain(rng, OVERSAMPLE * n, product)
    ranked = pool[np.argsort(min_imag_eigenvalue(pool))]
    return ranked[OVERSAMPLE // 2::OVERSAMPLE][rng.permutation(n)]


def _eye(m: int) -> np.ndarray:
    return np.broadcast_to(np.eye(4, dtype=np.int64), (m, 4, 4)).copy()


def _sym_blocks(rng: np.random.Generator, m: int) -> np.ndarray:
    b = rng.integers(-1, 2, size=(m, 3))
    return np.stack([np.stack([b[:, 0], b[:, 1]], -1), np.stack([b[:, 1], b[:, 2]], -1)], -2)


def _translations(blocks: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """[[I, B], [0, I]], or [[I, 0], [B, I]] where ``lower`` is set."""
    t = _eye(len(blocks))
    t[~lower, :2, 2:] = blocks[~lower]
    t[lower, 2:, :2] = blocks[lower]
    return t


def level2_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random level-2 matrices: words of 1..LEVEL2_MAX_WORD upper or lower
    translations by even symmetric blocks, redrawn until every entry is at
    most LEVEL2_ENTRY_BOUND in modulus."""
    kept: list[np.ndarray] = []
    have = 0
    while have < n:
        m = 2 * n
        g = _eye(m)
        length = rng.integers(1, LEVEL2_MAX_WORD + 1, size=m)
        for step in range(LEVEL2_MAX_WORD):
            s = _translations(2 * _sym_blocks(rng, m), rng.integers(0, 2, size=m) == 1)
            live = step < length
            g[live] = s[live] @ g[live]
        ok = np.max(np.abs(g), axis=(1, 2)) <= LEVEL2_ENTRY_BOUND
        kept.append(g[ok])
        have += int(ok.sum())
    return np.concatenate(kept)[:n]


_J = np.block([[np.zeros((2, 2), np.int64), np.eye(2, dtype=np.int64)],
               [-np.eye(2, dtype=np.int64), np.zeros((2, 2), np.int64)]])


def _gl2(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    inv = det * np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]], dtype=np.int64)
    m = np.zeros((4, 4), dtype=np.int64)
    m[:2, :2] = u.T
    m[2:, 2:] = inv
    return m


_UNITS = [_gl2([[1, 1], [0, 1]]), _gl2([[1, 0], [1, 1]]), _gl2([[0, 1], [1, 0]])]


def symplectic_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random words of 1..SCRAMBLE_MAX_WORD generators of Sp4(Z): J,
    translations by symmetric blocks with entries in {-1, 0, 1}, and three
    GL2(Z) units."""
    out = np.empty((n, 4, 4), dtype=np.int64)
    for i in range(n):
        g = np.eye(4, dtype=np.int64)
        for _ in range(int(rng.integers(1, SCRAMBLE_MAX_WORD + 1))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                step = _J
            elif kind == 1:
                step = _translations(_sym_blocks(rng, 1), np.array([False]))[0]
            else:
                step = _UNITS[int(rng.integers(0, len(_UNITS)))]
            g = step @ g
        out[i] = g
    return out


def is_symplectic(gammas: np.ndarray) -> np.ndarray:
    """Exact integer check of M^t J M = J, per matrix."""
    return np.all(np.swapaxes(gammas, -1, -2) @ _J @ gammas == _J, axis=(-2, -1))


def digest(*parts) -> str:
    """Short sha256 over arrays and strings, to pin down what was measured."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        else:
            a = np.ascontiguousarray(p)
            h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]
