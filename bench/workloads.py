"""The four benchmark workloads.

Each workload is a closed loop with one client: the worker calls ``op(k, t)``
for input ``k`` and only then the next one.  Construction is the set-up:
inputs from the seed, reference values and warm-up.  The in-process
workloads also take ``stream``: stream 0 gives the inputs the timed phase
cycles through, stream 1 a second set drawn the same way from other random
numbers and not warmed up, which the worker runs once each to detect
caching keyed on the input.  ``check`` judges every output of the timed
phase afterwards and returns the misses as (position in ``results``,
layer, message) triples.  ``t`` is a tracer
whose ``call`` wraps each public library call in a span; see
``tracing.py``.  ``control_reps`` is how many control-kernel calls are
timed after each operation, a few percent of its time; see ``control.py``.
With ``per_input`` the latency percentiles are taken over each input's
median latency, otherwise over every operation.
README.md says why each workload is there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np

import siegel_runge as sr
from siegel_runge.cli import dispatch
from siegel_runge.theta import DEFAULT_TOL_FOURTH

import inputs
import reference
from tracing import NullTracer

#: Inner tolerance of the first attempt per theta constant inside psi:
#: today's ``_fourth_power`` starts at tol / 8.  Used only for the computed
#: radius metrics.
THETA_INNER_TOL = DEFAULT_TOL_FOURTH / 8.0

#: psi promises this absolute error per coordinate.
PSI_TOL = DEFAULT_TOL_FOURTH

#: Level-2 invariance bound of acceptance check c06.
INVARIANCE_BOUND = 1e-7

#: Slack of the fundamental-domain check on reduced points.  The reduction
#: itself accepts Gottschling determinants down to 1 - 1e-9.
DOMAIN_SLACK = 1e-8

#: Bounds on the witness replay residual max |act(transform, tau) - reduced|
#: over the entries, on scrambled and on squeezed points.  A wrong transform
#: gives residuals of order 1.  On scrambled points the witness contract
#: holds to rounding: over 12800 of them (seeds 1..100, both streams) the
#: largest residual is 8e-13.  On squeezed points the reduction drifts away
#: from the exact image of tau, a known defect that ROADMAP.md lists: over
#: 38400 of them the median residual is 3e-12, the 99.9th percentile 2e-8,
#: and two exceed 1e-7 by far: 6.4e-7 and 3.3e-5 (seed 49, point 242).  The
#: exact replay in 50-digit arithmetic agrees with this float replay to
#: 1e-10 there, so the drift is in the library's reduced point.  It is
#: measured, not failed, as halfspace.reduce.replay_residual_max; the bound
#: on squeezed points only catches a wrong transform.
REPLAY_BOUND_SCRAMBLED = 1e-9
REPLAY_BOUND_SQUEEZED = 1e-2


def bit_reversal(n: int) -> np.ndarray:
    """Permutation of range(n), n a power of two, whose every prefix of
    length 2^j visits the strata evenly."""
    bits = n.bit_length() - 1
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)])


def _radius(point: np.ndarray) -> int:
    return sr.truncation_radius(float(inputs.min_imag_eigenvalue(point)), THETA_INNER_TOL)


def _points(arr: np.ndarray) -> list[sr.SiegelPoint]:
    return [sr.SiegelPoint(*map(complex, p)) for p in arr]


def _rng(seed: int, workload: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, stream] if stream else [seed, workload])


class EmbedReduced:
    """Fundamental-domain points through psi, vanishing pattern and height;
    every BATCH points end with relation_rank of the batch."""

    name = "embed_reduced"
    tail_pct = 95.0
    per_input = True
    control_reps = 4
    runs_in_children = False
    N = 256
    BATCH = 32
    PRODUCT_PER_BATCH = 8
    ORACLE_POINTS = 16

    def __init__(self, seed: int, stream: int = 0):
        rng = _rng(seed, 1, stream)
        batches = self.N // self.BATCH
        n_product = batches * self.PRODUCT_PER_BATCH
        generic = inputs.sample_domain_stratified(rng, self.N - n_product)
        product = inputs.sample_domain_stratified(rng, n_product, product=True)
        pts = np.empty((self.N, 3), dtype=complex)
        self.product = np.zeros(self.N, dtype=bool)
        for b in range(batches):
            slots = b * self.BATCH + rng.permutation(self.BATCH)
            self.product[slots[: self.PRODUCT_PER_BATCH]] = True
        pts[self.product] = product
        pts[~self.product] = generic
        self.taus = _points(pts)
        self.radius = [_radius(p) for p in pts]
        self.oracle = {
            int(k): reference.theta_fourth_oracle(*pts[k])
            for k in rng.choice(self.N, self.ORACLE_POINTS, replace=False)
        }
        self.digest = inputs.digest(pts, self.product)
        y_min = inputs.min_imag_eigenvalue(pts)
        self.info = {
            "points": self.N,
            "batch": self.BATCH,
            "product_share": self.PRODUCT_PER_BATCH / self.BATCH,
            "oracle_points": self.ORACLE_POINTS,
            "y_min_range": [float(y_min.min()), float(y_min.max())],
        }
        self._batch = [None] * self.BATCH
        if not stream:
            for k in range(self.BATCH):
                self.op(k, NullTracer())

    def op(self, k, t):
        p = t.call("embedding.psi", sr.psi, self.taus[k])
        zeros = t.call("embedding.classify.near_zero_coordinates", sr.near_zero_coordinates, p)
        height = t.call("heights.archimedean_height_estimate", sr.archimedean_height_estimate, [p], 1)
        self._batch[k % self.BATCH] = p
        rank = None
        if k % self.BATCH == self.BATCH - 1:
            rank = t.call("embedding.relation_rank", sr.relation_rank, self._batch)
        return p, zeros, height, rank

    def check(self, results):
        misses = []
        for i, (k, (p, zeros, height, rank)) in enumerate(results):
            if k in self.oracle:
                err = float(np.max(np.abs(p.coords - self.oracle[k])))
                if not err <= PSI_TOL:
                    misses.append((i, "embedding.psi",
                                   f"point {k}: oracle error {err:.2e} > {PSI_TOL:.0e}"))
            want = {reference.PRODUCT_ZERO_INDEX} if self.product[k] else set()
            if zeros != want:
                misses.append((i, "embedding.classify",
                               f"point {k}: near-zero {sorted(zeros)}, want {sorted(want)}"))
            if not abs(height - math.log(float(np.max(np.abs(p.coords))))) <= 1e-12:
                misses.append((i, "heights", f"point {k}: height {height!r}"))
            if rank is not None and rank != 5:
                misses.append((i, "embedding.relation_rank",
                               f"batch ending at {k}: rank {rank}, want 5"))
        return misses


class EmbedUnreduced:
    """gamma.tau for level-2 gamma, each through psi, compared with psi of the
    reduced tau.  The slots are stratified by y_min, which sets the cost."""

    name = "embed_unreduced"
    tail_pct = 95.0
    per_input = True
    control_reps = 16
    runs_in_children = False
    N = 256
    BASES = 64
    POOL = 8192
    LOG10_Y_RANGE = (math.log10(1e-2), math.log10(0.8))

    def __init__(self, seed: int, stream: int = 0):
        rng = _rng(seed, 2, stream)
        bases = inputs.sample_domain(rng, self.BASES)
        words = inputs.level2_words(rng, self.POOL)
        base_of = np.arange(self.POOL) % self.BASES
        pool = inputs.act(words, bases[base_of])
        log_y = np.log10(inputs.min_imag_eigenvalue(pool))
        lo, hi = self.LOG10_Y_RANGE
        targets = lo + (hi - lo) * (np.arange(self.N) + 0.5) / self.N
        free = np.ones(self.POOL, dtype=bool)
        chosen = np.empty(self.N, dtype=int)
        for s, target in enumerate(targets):
            c = int(np.argmin(np.where(free, np.abs(log_y - target), np.inf)))
            chosen[s] = c
            free[c] = False
        order = bit_reversal(self.N)
        chosen = chosen[order]
        pts = pool[chosen]
        self.taus = _points(pts)
        self.radius = [_radius(p) for p in pts]
        base_psi = {b: sr.psi(sr.SiegelPoint(*map(complex, bases[b]))).coords
                    for b in set(base_of[chosen].tolist())}
        self.ref = [base_psi[base_of[c]] for c in chosen]
        self.digest = inputs.digest(pts, words[chosen], bases)
        self.info = {
            "slots": self.N,
            "log10_y_min_targets": [round(lo, 3), round(hi, 3)],
            "worst_slot_miss_log10": float(np.max(np.abs(log_y[chosen] - targets[order]))),
            "max_entry": int(np.max(np.abs(words[chosen]))),
            "radius_range": [min(self.radius), max(self.radius)],
        }
        # Fills the cached lattice rings up to the largest radius any slot
        # needs, at a tenth of the cost of psi there.
        if not stream:
            worst = int(np.argmax(self.radius))
            sr.theta_constant(sr.even_characteristics()[0], self.taus[worst], THETA_INNER_TOL)

    def op(self, k, t):
        return t.call("embedding.psi", sr.psi, self.taus[k])

    def check(self, results):
        misses = []
        for i, (k, p) in enumerate(results):
            d = reference.projective_distance(p.coords, self.ref[k])
            if not d <= INVARIANCE_BOUND:
                misses.append((i, "embedding.psi",
                               f"slot {k}: projective distance {d:.2e} > {INVARIANCE_BOUND:.0e}"))
        return misses


class ReduceTube:
    """Reduction, tube membership and bound case b on scrambled points
    (k divisible by 4) and on squeezed points, with Im scaled down (the
    other k).  With a quarter of the points scrambled, the median falls
    inside the squeezed points, whose scales are the same for every seed,
    not on the edge between the two kinds."""

    name = "reduce_tube"
    tail_pct = 95.0
    per_input = True
    control_reps = 4
    runs_in_children = False
    N = 256
    SCALE_LOG10 = (-2.0, -6.0)

    def __init__(self, seed: int, stream: int = 0):
        rng = _rng(seed, 3, stream)
        self.squeezed = np.arange(self.N) % 4 != 0
        n_scrambled = self.N - int(self.squeezed.sum())
        scrambled = inputs.act(inputs.symplectic_words(rng, n_scrambled),
                               inputs.sample_domain(rng, n_scrambled))
        n_squeezed = self.N - n_scrambled
        lo, hi = self.SCALE_LOG10
        scales = 10.0 ** (lo + (hi - lo) * (np.arange(n_squeezed) + 0.5) / n_squeezed)
        base = inputs.sample_domain(rng, n_squeezed)
        pts = np.empty((self.N, 3), dtype=complex)
        pts[~self.squeezed] = scrambled
        pts[self.squeezed] = base.real + 1j * scales[:, None] * base.imag
        self.pts = pts
        self.taus = _points(pts)
        self.t = rng.uniform(sr.MIN_TUBE_PARAMETER, 2.0, size=self.N)
        self.s_p = rng.integers(0, 9, size=self.N)
        self.places = rng.integers(1, 5, size=self.N)
        self.digest = inputs.digest(pts, self.t, self.s_p, self.places)
        self.info = {
            "points": self.N,
            "scrambled_share": n_scrambled / self.N,
            "im_scale_range": [10.0 ** lo, 10.0 ** hi],
        }
        if not stream:
            for k in range(8):
                self.op(k, NullTracer())

    def op(self, k, t):
        res = t.call("halfspace.reduce", sr.reduce_to_fundamental_domain, self.taus[k])
        tube = t.call("embedding.classify.in_tube", sr.in_tube, res.reduced, self.t[k])
        bound = t.call("heights.bound_case_b", sr.bound_case_b,
                       int(self.s_p[k]), int(self.places[k]), self.t[k])
        return res, tube, bound

    def _replay(self, results):
        """Reduced entries, transforms and replay residuals of the results."""
        ks = np.array([k for k, _ in results], dtype=int)
        reduced = np.array([[r.reduced.tau1, r.reduced.tau2, r.reduced.tau4]
                            for _, (r, _, _) in results])
        transforms = np.array([r.transform.mat for _, (r, _, _) in results])
        replay = np.max(np.abs(inputs.act(transforms, self.pts[ks]) - reduced), axis=-1)
        return reduced, transforms, replay

    def check(self, results):
        misses = []
        reduced, transforms, replay = self._replay(results)
        outside = inputs.domain_violation(reduced)
        symplectic = inputs.is_symplectic(transforms)
        for i, (k, (res, tube, bound)) in enumerate(results):
            if not outside[i] <= DOMAIN_SLACK:
                misses.append((i, "halfspace.reduce", f"point {k}: {outside[i]:.2e} outside the domain"))
            limit = REPLAY_BOUND_SQUEEZED if self.squeezed[k] else REPLAY_BOUND_SCRAMBLED
            if not replay[i] <= limit:
                misses.append((i, "halfspace.reduce",
                               f"point {k}: replay residual {replay[i]:.2e} > {limit:.0e}"))
            if not symplectic[i]:
                misses.append((i, "halfspace.reduce", f"point {k}: transform is not symplectic"))
            if tube != (res.reduced.tau4.imag >= self.t[k]):
                misses.append((i, "embedding.classify", f"point {k}: in_tube {tube}"))
            holds = int(self.s_p[k]) + int(self.places[k]) < 10
            h_psi = 4.0 * math.pi * self.t[k] + 6.14
            if bound.condition_holds != holds or (holds and not abs(bound.h_psi_bound - h_psi) <= 1e-9):
                misses.append((i, "heights", f"point {k}: bound case b {bound.to_json()}"))
        return misses

    def layer_stats(self, results):
        passes = [r.iterations for _, (r, _, _) in results]
        _, transforms, replay = self._replay(results)
        return {
            "halfspace.reduce.passes_mean": float(np.mean(passes)),
            "halfspace.reduce.passes_max": int(np.max(passes)),
            "halfspace.reduce.transform_entry_max": int(np.max(np.abs(transforms))),
            "halfspace.reduce.replay_residual_max": float(np.max(replay)),
        }


def _tau_json(p: np.ndarray) -> str:
    return json.dumps({k: [float(z.real), float(z.imag)] for k, z in zip(("tau1", "tau2", "tau4"), p)})


class CliCold:
    """A fresh ``python -m siegel_runge.cli`` process per operation, cycling
    through a fixed mix of nine subcommands."""

    name = "cli_cold"
    tail_pct = 85.0
    per_input = False
    control_reps = 100
    runs_in_children = True
    TIMEOUT_S = 60.0

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        generic, scrambled_base = inputs.sample_domain(rng, 2), inputs.sample_domain(rng, 2)
        product = inputs.sample_domain(rng, 1, product=True)[0]
        scrambled = inputs.act(inputs.symplectic_words(rng, 2), scrambled_base)
        even = reference.EVEN_BITS[int(rng.integers(0, len(reference.EVEN_BITS)))]
        self.argvs = [
            ["runge", "--n", str(int(rng.choice([2, 4, 6, 8]))), "--s", str(int(rng.integers(1, 41)))],
            ["bounds", "--case", "a", "--sp", str(int(rng.integers(0, 7))),
             "--field", str(rng.choice(["Q", "Qi"]))],
            ["height", "--rational", *(str(int(v)) for v in rng.integers(1, 1000, size=4))],
            ["theta", "--tau", _tau_json(generic[0]), "--char", ",".join(map(str, even))],
            ["embed", "--tau", _tau_json(generic[1])],
            ["reduce", "--tau", _tau_json(scrambled[0])],
            ["vanishing", "--tau", _tau_json(product)],
            ["tube", "--tau", _tau_json(scrambled[1]),
             "--t", f"{rng.uniform(sr.MIN_TUBE_PARAMETER, 2.0):.6f}"],
            ["rank", "--samples", "12", "--seed", str(int(rng.integers(0, 2**31)))],
        ]
        self.ref = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dispatch(argv)
            self.ref.append((code, buf.getvalue()))
        self.N = len(self.argvs)
        self.digest = inputs.digest("\0".join("\1".join(a) for a in self.argvs))
        self.info = {"commands": [a[0] for a in self.argvs]}
        self.op(0, NullTracer())

    def _run(self, args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)

    def op(self, k, t):
        proc = t.call("cli.call", self._run, ["-m", "siegel_runge.cli", *self.argvs[k]])
        return proc.returncode, proc.stdout

    def probe(self, t):
        """One bare interpreter start and one import of the CLI module."""
        t.call("cli.interpreter", self._run, ["-c", "pass"])
        t.call("cli.import", self._run, ["-c", "import siegel_runge.cli"])

    def check(self, results):
        misses = []
        for i, (k, (code, out)) in enumerate(results):
            ref_code, ref_out = self.ref[k]
            if code != 0 or ref_code != 0:
                misses.append((i, "cli", f"{self.argvs[k][0]}: exit {code}, in-process {ref_code}"))
            elif out != ref_out:
                misses.append((i, "cli",
                               f"{self.argvs[k][0]}: stdout differs from the in-process dispatch"))
        return misses


WORKLOADS = {w.name: w for w in (EmbedReduced, EmbedUnreduced, ReduceTube, CliCold)}
