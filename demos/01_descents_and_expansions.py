"""Walk through the two ways of computing the Redei-Berge function.

A digraph D assigns each listing w of its vertices a descent set: the
positions where consecutive vertices form an arc.  Summing a fundamental
quasisymmetric function over all listings gives a symmetric function U_D,
and the package can also produce it directly in the power-sum basis from a
signed sum over permutations.  This script shows both routes agreeing on
the 3-vertex running example, compared in the fundamental basis.
"""

import itertools

from redei_berge import (
    Digraph,
    PowerSumPolynomial,
    descent_set,
    redei_berge_by_definition,
    redei_berge_powersum,
)

# vertices 0, 1, 2; one real arc 0 -> 1 plus loops at 1 and 2
d = Digraph(3, [(0, 1), (1, 1), (2, 2)])

print("descent sets of all six listings:")
for w in itertools.permutations(range(3)):
    print(f"  {w} -> {sorted(descent_set(d, w).members)}")

dist = redei_berge_by_definition(d)
print("\nfundamental-basis coefficients (descent set -> multiplicity):")
for key, coeff in sorted(dist.terms.items(), key=lambda kv: sorted(kv[0].members)):
    print(f"  {sorted(key.members)} -> {coeff}")

f = redei_berge_powersum(d)
print("\npower-sum form:", f.to_text())
print("JSON form:     ", f.to_json())

assert f.to_fundamental() == dist
print("\nthe power-sum form, rewritten in the fundamental basis, is the listing sum.")

print("the bridge one power sum at a time (descent set -> coefficient):")
for parts in sorted(f.terms, reverse=True):
    single = PowerSumPolynomial({parts: 1}).to_fundamental()
    row = {tuple(sorted(key.members)): int(c) for key, c in single.terms.items()}
    print(f"  p{list(parts)}: {dict(sorted(row.items()))}")
