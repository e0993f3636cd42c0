"""The tubular finiteness condition
=================================

Incidence data for a family of divisors determines the integers m (largest
nonempty intersection) and m_Y (largest intersection escaping the excluded
set Y); integral points avoiding a tube around Y are finite in number
whenever m_Y * |S| < r.  At even level n the Siegel specialization has
closed formulas: r = n^4/2 + 2 divisors and m_Y = n^2 - 3.
"""
import itertools

import siegel_runge as sr

print("toy incidence: three lines in general position")
print("-" * 55)
lines = sr.DivisorIncidence(3, [{1, 2}, {1, 3}, {2, 3}])
print(f"  m   (no excluded set)           = {sr.m_y_value(lines)}")
cut = sr.DivisorIncidence(3, [{1}, {2}, {3}])
print(f"  m_Y (all crossings inside Y)    = {sr.m_y_value(cut)}")
partial = sr.DivisorIncidence(3, [{1, 2}, {1, 3}])
print(f"  m_Y (one crossing inside Y)     = {sr.m_y_value(partial)}")

print()
print("verdicts m_Y * s < r")
print("-" * 55)
for m_y, s, r in [(1, 9, 10), (1, 10, 10), (13, 9, 130), (13, 10, 130)]:
    v = sr.runge_condition(m_y, s, r)
    print(f"  m_Y={v.m_used:>2}  s={v.s:>2}  r={v.r:>3}  ->  {'holds' if v.holds else 'fails'}")

print()
print("Siegel specialization at even level n")
print("-" * 55)
print(f"  {'n':>2}  {'divisors':>9}  {'enumeration':>11}  {'m_Y':>4}  largest s with a verdict")
for n in (2, 4, 6, 8):
    r = sr.siegel_divisor_count(n)
    m_y = sr.siegel_m_y(n)
    # independent count: orbits of (Z/n)^4 under negation minus the six
    # 2-torsion classes that always sit on the theta divisor
    seen, orbits = set(), 0
    for v in itertools.product(range(n), repeat=4):
        if v not in seen:
            orbits += 1
            seen.add(v)
            seen.add(tuple((-x) % n for x in v))
    enumerated = orbits - 6
    s_max = max(s for s in range(1, r) if sr.siegel_runge_condition(n, s).holds)
    print(f"  {n:>2}  {r:>9}  {enumerated:>11}  {m_y:>4}  s <= {s_max}")

print()
print("level 2 in detail: the ten product divisors meet only inside the boundary")
print("-" * 55)
witness = sr.siegel_incidence()
print(f"  maximal outside-Y subsets: {[sorted(s) for s in witness.outside_y]}")
print(f"  m_Y = {sr.m_y_value(witness)}, so the condition is s_L < 10:")
for s in (9, 10):
    print(f"    s_L = {s}: {'holds' if sr.runge_condition(1, s, 10).holds else 'fails'}")
