"""Mutation check for the theta kernel, the route through the fundamental
domain, the reduction behind it and the point that psi builds.

Run from anywhere, with no options:

    python tests/mutants.py

A mutant is one small edit to a source file, given as (name, file, old
text, new text); a test kills it by failing.  For each mutant the script
copies src/, tests/ and pyproject.toml into a temporary directory, applies
the edit there and runs test_theta, test_embedding and test_halfspace on the
copy, with PYTHONPATH set to the copy's src, hypothesis seeded and the
pytest cache off, so nothing is written into the repository.  The copy keeps
pyproject.toml for its error::RuntimeWarning filter, which some kills need.
A run that passes TIMEOUT seconds counts as killed: without its |G12| guard
the Gauss reduction never ends.  The unmutated copy runs first and must
pass.  Two mutants run at a time, and the whole list, 71 mutants, takes
about seven to nine minutes on two CPUs (all killed in 443 s and 527 s).

The script prints each mutant with the tests that killed it, and exits 1 if
an old text does not occur exactly once in its file, if the unmutated copy
fails, or if a mutant survives.  tests/test_package.py checks the first of
these in tier-1, so a change that moves mutated code must update the list.
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("tests/test_theta.py", "tests/test_embedding.py", "tests/test_halfspace.py")
TIMEOUT = 60.0
WORKERS = 2

THETA = "src/siegel_runge/theta.py"
HALFSPACE = "src/siegel_runge/halfspace.py"
EMBEDDING = "src/siegel_runge/embedding.py"

#: (name, file, old text, new text); each old text occurs once in its file.
MUTANTS = (
    # first, as it runs to the timeout
    ("|G12| guard dropped", HALFSPACE,
     "if not (0.0 < h22 and abs(h12) < abs(g12)):", "if not 0.0 < h22:"),
    # the radius search
    ("refusal scans to the cap", THETA,
     "    if start <= _MAX_RADIUS:\n        for r in range(max(1, math.ceil(start)), _MAX_RADIUS + 1):",
     "    if True:\n        for r in range(max(1, math.ceil(min(start, _MAX_RADIUS))), _MAX_RADIUS + 1):"),
    ("search from radius 1", THETA,
     "for r in range(max(1, math.ceil(start)), _MAX_RADIUS + 1):", "for r in range(1, _MAX_RADIUS + 1):"),
    # the two kernels
    ("axis of the box at r - 1", THETA,
     "n = np.arange(-r - 1, r + 1)", "n = np.arange(-r, r)"),
    ("axis cache unbounded", THETA,
     "@lru_cache(maxsize=64)", "@lru_cache(maxsize=None)"),
    ("sign row 1 negated", THETA,
     "signs[0, :n.size - 1], signs[1, :n.size - 1] = 1.0, alt[1:]",
     "signs[0, :n.size - 1], signs[1, :n.size - 1] = 1.0, -alt[1:]"),
    ("half_signs weight 2 at w = 0", THETA,
     "np.where(w == 0.0, 1.0, 2.0)", "np.where(w == 0.0, 2.0, 2.0)"),
    ("K rows from signs[1::2]", THETA,
     "signs[None, ::2, None, :]", "signs[None, 1::2, None, :]"),
    ("table built at radius _ROUTE_RADIUS", THETA,
     "_axis(_DOMAIN_RADIUS)", "_axis(_ROUTE_RADIUS)"),
    ("cache columns left unsorted", THETA,
     "q, k, count = q[:, order], k[:, order], np.cumsum(np.bincount(norm))",
     "q, k, count = q, k, np.cumsum(np.bincount(norm))"),
    ("zero budget cuts to level 0", THETA,
     "    if not budget > 0.0:\n        return top", "    if not budget > 0.0:\n        return 0"),
    ("count[level] - 1", THETA,
     "m = count.item(level)", "m = count.item(level) - 1"),
    ("each _table slab one row short", THETA,
     "e = np.exp(row[lo:lo + rows, None] + w[lo:lo + rows, None] * cross + col)\n"
     "        # in place, the complex loop that the next slab's exp needs after the zgemm\n"
     "        table += half_signs[:, lo:lo + rows] @ e @ signs.T",
     "e = np.exp(row[lo:lo + rows - 1, None] + w[lo:lo + rows - 1, None] * cross + col)\n"
     "        # in place, the complex loop that the next slab's exp needs after the zgemm\n"
     "        table += half_signs[:, lo:lo + rows - 1] @ e @ signs.T"),
    ("first _table slab skipped", THETA,
     "for lo in range(0, w.size, rows):", "for lo in range(rows, w.size, rows) or range(0, w.size, rows):"),
    ("last _table slab skipped", THETA,
     "for lo in range(0, w.size, rows):", "for lo in range(0, w.size, rows)[:-1] or range(0, w.size, rows):"),
    ("theta_constant at r - 1", THETA,
     "value = complex(_table(tau, r)[", "value = complex(_table(tau, r - 1)["),
    # the duplication formula
    ("table at tau in place of 2 tau", THETA,
     "q = 2j * math.pi * np.stack(", "q = 1j * math.pi * np.stack("),
    ("c + a -> c in _duplication", THETA,
     "2 * (c1 ^ a1) + (c2 ^ a2)] =", "2 * c1 + c2] ="),
    ("one extra sign in _DUPLICATION (row 3, c = 10)", THETA,
     "    d.flags.writeable = False\n", "    d[3, 10] = -d[3, 10]\n    d.flags.writeable = False\n"),
    ("_fourth_inner_tol divides by 4, not 64", THETA,
     "return tol / 64.0 /", "return tol / 4.0 /"),
    ("Poisson branch switched off", THETA,
     "    if y2 >= 1.0:\n        e, root =", "    if True:\n        e, root ="),
    ("e / (1 - e^3) -> e in the Theta bound", THETA,
     "2.0 * e / (1.0 - e * e * e)", "2.0 * e"),
    ("mod-2 step dropped", THETA,
     "if not (-1.0 <= t1.real <= 1.0 and -1.0 <= t2.real <= 1.0 and -1.0 <= t4.real <= 1.0):",
     "if False:"),
    # the box at the cap: the gate and the budget
    ("direct radius r - 1", THETA,
     "    tail = _tail(cap, y2)\n", "    cap -= cap == _ROUTE_RADIUS\n    tail = _tail(cap, y2)\n"),
    ("1 / (1 - x) taken as 1 in _cut", THETA,
     "_LEVEL_SLOPE * (1.0 + g)", "_LEVEL_SLOPE"),
    ("the factor 2 dropped from the level", THETA,
     "math.log(2.0 * (_LEVEL_SLOPE", "math.log((_LEVEL_SLOPE"),
    ("b -> 0", THETA,
     "_LEVEL_EXCESS = 14.5", "_LEVEL_EXCESS = 0.0"),
    ("alpha halved", THETA,
     "_LEVEL_SLOPE = 0.5", "_LEVEL_SLOPE = 0.25"),
    ("extra radius search on the direct path", THETA,
     "    tail = _tail(cap, y2)\n", "    _truncation(y2, inner)\n    tail = _tail(cap, y2)\n"),
    ("route radius r - 1", THETA,
     "    tail = _tail(cap, y2)\n", "    cap -= cap > _ROUTE_RADIUS\n    tail = _tail(cap, y2)\n"),
    ("the cut's top level taken at cap - 1", THETA,
     "_cut(cap, y2, inner - tail)", "_cut(cap - 1, y2, inner - tail)"),
    ("the gate tested at cap - 1", THETA,
     "    tail = _tail(cap, y2)\n", "    tail = _tail(cap - 1, y2)\n"),
    ("radius from Im(tau), not Im(2 tau)", THETA,
     "y2 = 2.0 * y_min\n", "y2 = y_min\n"),
    ("route tolerance not scaled by |det^2|", THETA,
     "scaled = tol * abs(det2)", "scaled = tol"),
    # rho and det^2 on the route
    ("route sums at tau1 and tau4 swapped", THETA,
     "values = _fourth_powers(q1, q2, q4, y_min,", "values = _fourth_powers(q4, q2, q1, y_min,"),
    ("affine term of the characteristic action dropped", THETA,
     "c01 * y2 + c00 * d00 + c01 * d01) % 2,", "c01 * y2) % 2,"),
    ("b00 c00 dropped from tr(B^t C)", THETA,
     "bc = b00 * c00 + b01 * c01", "bc = b01 * c01"),
    ("rho built at import", THETA,
     "    return perm, sign\n", "    return perm, sign\n\n\n_rho(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))\n"),
    ("-sign", THETA,
     "out = sign * values[perm]\n", "out = -sign * values[perm]\n"),
    ("a swapped pair in perm", THETA,
     "    perm.flags.writeable = sign.flags.writeable = False\n",
     "    perm[[1, 2]] = perm[[2, 1]]\n    perm.flags.writeable = sign.flags.writeable = False\n"),
    ("one routed coordinate times 1 + 1e-6", THETA,
     "    perm, sign = _rho(", "    values[0] *= 1 + 1e-6\n    perm, sign = _rho("),
    ("cocycle in place of det2", THETA,
     "det2 = cocycle * cocycle", "det2 = cocycle"),
    ("route drops the form check", THETA,
     "_act_entries(_symplectic_rows(rows), t1, t2, t4)", "_act_entries(rows, t1, t2, t4)"),
    ("route drops the H2 check on the image", THETA,
     "    _check_entries(q1, q2, q4)\n", ""),
    ("double-range refusal dropped", THETA,
     "    if not np.isfinite(out).all():\n        raise ResourceLimitError", "    if False:\n        raise ResourceLimitError"),
    ("overflow bound dropped from the scalar test", THETA,
     "if 2.0 * (16.0 * u2 ** 4 + 0.5) / sys.float_info.max <= abs(det2) < math.inf:",
     "if abs(det2) < math.inf:"),
    # the reduction
    ("one _gottschling_scan term sign", HALFSPACE,
     "det + t4, dp + t4 + 1,", "det + t4, dp + t4 - 1,"),
    ("b2 dropped from the translation's witness update", HALFSPACE,
     "x0 + b1 * z0 + b2 * w0, x1 + b1 * z1 + b2 * w1, x2 + b1 * z2 + b2 * w2, x3 + b1 * z3 + b2 * w3",
     "x0 + b1 * z0, x1 + b1 * z1, x2 + b1 * z2, x3 + b1 * z3"),
    ("GL2 witness rows 2 and 3 swapped", HALFSPACE,
     "v00, v01, v10, v11 = e * u11, -e * u01, -e * u10, e * u00",
     "v10, v11, v00, v01 = e * u11, -e * u01, -e * u10, e * u00"),
    ("int64 guard dropped", HALFSPACE,
     "if max(w) >= 2**63 or min(w) <= -2**63:", "if False:"),
    ("int64 guard without its min side", HALFSPACE,
     "if max(w) >= 2**63 or min(w) <= -2**63:", "if max(w) >= 2**63:"),
    ("int64 guard after the Gottschling step only", HALFSPACE,
     "                changed = True\n\n        if not changed:\n"
     "            return (r0, r1, r2, r3), iterations\n"
     "        # the refusal of _int64_rows, on one concatenation of the rows\n"
     "        w = r0 + r1 + r2 + r3\n"
     "        if max(w) >= 2**63 or min(w) <= -2**63:\n",
     "                w = r0 + r1 + r2 + r3\n"
     "                if max(w) >= 2**63 or min(w) <= -2**63:\n"
     "                    raise ResourceLimitError('past int64')\n"
     "                changed = True\n\n        if not changed:\n"
     "            return (r0, r1, r2, r3), iterations\n"
     "        if False:\n"),
    ("last of the smallest determinants taken", HALFSPACE,
     "_gottschling_step(vals.index(low),", "_gottschling_step(len(vals) - 1 - vals[::-1].index(low),"),
    ("Gottschling step below 1, not 1 - _TOL", HALFSPACE,
     "if low < 1.0 - _TOL:", "if low < 1.0:"),
    # the closed-form steps, the certificate, the Gauss exit and the checker
    ("inversion image +a4 / det", HALFSPACE,
     "return (-a4 / det, 0.5 * (x + x), -a1 / det)", "return (a4 / det, 0.5 * (x + x), -a1 / det)"),
    ("tau1-corner witness rows 0 and 2 swapped", HALFSPACE,
     "((-z0, -z1, -z2, -z3), r1, rows[0], r3)", "(rows[0], r1, (-z0, -z1, -z2, -z3), r3)"),
    ("tau4-corner witness rows 1 and 3 swapped", HALFSPACE,
     "(rows[0], (-w0, -w1, -w2, -w3), rows[2], r1)", "(rows[0], r1, rows[2], (-w0, -w1, -w2, -w3))"),
    ("s2 and s4 swapped in the step's shift", HALFSPACE,
     "s1, s2, s4 = _SHIFTS[k]", "s1, s4, s2 = _SHIFTS[k]"),
    ("a dropped sign in an inversion's rows", HALFSPACE,
     "(-z0, -z1, -z2, -z3), (-w0, -w1, -w2, -w3),", "(-z0, -z1, -z2, -z3), (-w0, -w1, w2, -w3),"),
    ("H2 check after the Gottschling step dropped", HALFSPACE,
     "(r0, r1, r2, r3))\n                _check_entries(t1, t2, t4)\n", "(r0, r1, r2, r3))\n"),
    ("conditioning fallback of the inversions dropped", HALFSPACE,
     "        if abs(det) >= CONDITION_EPS:\n", "        if True:\n"),
    ("certificate without 1 <= y1", HALFSPACE,
     "return 1.0 <= y1 and 2.0 * abs(y2) <= y1 <= y4 and", "return 2.0 * abs(y2) <= y1 <= y4 and"),
    ("certificate without 2 |y2| <= y1", HALFSPACE,
     "2.0 * abs(y2) <= y1 <= y4 and 1.0 <=", "y1 <= y4 and 1.0 <="),
    ("certificate without det Y >= 1", HALFSPACE,
     "y1 <= y4 and 1.0 <= y1 * y4 - y2 * y2", "y1 <= y4"),
    ("Gauss rounding bound dropped", HALFSPACE,
     "    if not g11 > bound:\n", "    if False:\n"),
    ("Gauss swap keeps G12", HALFSPACE,
     "g11, g12, g22 = g22, p00 * u01 + p01 * u11, g11", "g11, g22 = g22, g11"),
    ("Gauss exit for y2 < 0", HALFSPACE,
     "if 0.0 <= y2 and y1 <= y4 and round(y2 / y1) == 0:", "if y1 <= y4 and round(y2 / y1) == 0:"),
    ("form check dropped from the checker", HALFSPACE,
     "    if not _preserves_form(rows):\n        raise InvalidInputError", "    if False:\n        raise InvalidInputError"),
    # psi's point
    ("trusted constructor without the all-tiny refusal", EMBEDDING,
     "        _fill(point, coords, tol)\n", "        _fill(point, coords, 0.0)\n        _set(point, \"tol\", tol)\n"),
    ("near_zero_coordinates with < for <=", EMBEDDING,
     "if m <= cut}", "if m < cut}"),
    ("a list of points filled row by row", EMBEDDING,
     "if isinstance(points, (list, tuple)):", "if False:"),
)


def misplaced() -> list[str]:
    """The names of the mutants whose old text does not occur exactly once
    in its file, or equals its new text."""
    texts = {}
    bad = []
    for name, path, old, new in MUTANTS:
        text = texts.setdefault(path, (ROOT / path).read_text())
        if text.count(old) != 1 or old == new:
            bad.append(name)
    return bad


def run(mutant) -> tuple[str, list[str] | None, float]:
    """(name, killers, seconds) for one mutant, or for the unmutated copy if
    mutant is None.  killers is None when the tests pass, the failed test
    ids otherwise, or a one-line reason when no test id is printed."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        name = "unmutated"
        if mutant is not None:
            name, path, old, new = mutant
            target = copy / path
            target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *MODULES]
        try:
            out = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return name, [f"(timed out after {TIMEOUT:.0f} s)"], time.perf_counter() - start
    if out.returncode == 0:
        return name, None, time.perf_counter() - start
    killers = [line.split()[1] for line in out.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return name, killers or [f"(pytest exited {out.returncode})"], time.perf_counter() - start


def main() -> int:
    bad = misplaced()
    for name in bad:
        print(f"old text not found exactly once, or equal to the new: {name}")
    if bad:
        return 1
    start = time.perf_counter()
    _, killers, seconds = run(None)
    if killers is not None:
        print(f"the unmutated copy fails ({seconds:.1f} s): {' '.join(killers)}")
        return 1
    print(f"unmutated copy passes ({seconds:.1f} s)")
    survivors = []
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        for name, killers, seconds in pool.map(run, MUTANTS):
            if killers is None:
                survivors.append(name)
                print(f"SURVIVED  {name} ({seconds:.1f} s)")
                continue
            print(f"killed    {name} ({seconds:.1f} s) by {len(killers)}:")
            for test in killers:
                print(f"            {test.removeprefix('tests/')}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
