"""The multiparameter deformation.

Every ordered vertex pair a gets a rational weight t_a (with s_a = t_a + 1).
The deformed function sums, over listings and weakly increasing index
sequences, monomials weighted by the s-values at the stalls, and it has a
closed form: over all permutations, the product over cycles of
(prod of s over the cyclic arcs - prod of t), attached to p_{cycle type}.
Setting t = -1 on arcs and 0 elsewhere recovers the plain function.
"""

from fractions import Fraction

from redei_berge import (
    ArcWeights,
    Digraph,
    deformed_by_definition,
    deformed_powersum,
    redei_berge_powersum,
)

generic = ArcWeights(2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-2, 3)})
f = deformed_powersum(generic)
print("two vertices, t(0,1) = 1/2, t(1,0) = -2/3:")
print("  closed form:", f.to_text())
assert f.coefficient((2,)) == Fraction(1, 2) + Fraction(-2, 3) + 1
assert f.to_fundamental() == deformed_by_definition(generic)
print("  matches the defining double sum, compared in the fundamental basis.")

print("\nspecializing t to -1 on arcs recovers the undeformed function:")
d = Digraph(3, [(0, 1), (1, 1), (2, 2)])
indicator = ArcWeights.from_digraph(d)
print("  deformed:  ", deformed_powersum(indicator).to_text())
print("  undeformed:", redei_berge_powersum(d).to_text())

print("\neach weight enters with degree at most one (second difference is 0):")
w = ArcWeights.random(3, seed=1)
base = w.t(0, 2)
f0 = deformed_powersum(w)
f1 = deformed_powersum(w.updated(0, 2, base + 1))
f2 = deformed_powersum(w.updated(0, 2, base + 2))
print("  f(t+2) - 2 f(t+1) + f(t) =", (f2 - f1.scale(2) + f0).to_text())
