"""Brute-force sweeps that confirm the closed power-sum formulas.

Three formulas are checked against the defining listing sum (the signed
one directly, in the fundamental basis; the other two against it):

- the signed formula over permutations whose cycles split between the
  digraph and its complement (every digraph),
- the doubled form over odd-cycle-type permutations (tournaments),
- the subtraction-free form that drops risky cycles (no 2-cycles).

Tournaments additionally land in the cone of nonnegative-integer
polynomials in p_1, 2p_3, 2p_5, ...
"""

from redei_berge import (
    enumerate_digraphs,
    enumerate_tournaments,
    in_doubled_odd_cone,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)

print("signed formula vs definition, all digraphs with loops, n <= 3:")
for n in range(4):
    total = 0
    for d in enumerate_digraphs(n):
        assert redei_berge_powersum(d).to_fundamental() == redei_berge_by_definition(d)
        total += 1
    print(f"  n={n}: {total} digraphs agree")

print("\ntournament and two-cycle-free forms, all tournaments, n <= 4:")
for n in range(5):
    cone_ok = 0
    for d in enumerate_tournaments(n):
        f = redei_berge_powersum(d)
        assert redei_berge_tournament(d) == f
        assert redei_berge_two_cycle_free(d) == f
        assert in_doubled_odd_cone(f)
        cone_ok += 1
    print(f"  n={n}: {cone_ok} tournaments agree and sit in the doubled-odd cone")

print("\nsubtraction-free form on all two-cycle-free digraphs, n = 3:")
checked = 0
for d in enumerate_digraphs(3):
    if not d.is_two_cycle_free():
        continue
    f = redei_berge_two_cycle_free(d)
    assert f == redei_berge_powersum(d)
    assert all(c >= 0 for c in f.terms.values())
    checked += 1
print(f"  {checked} digraphs, all with nonnegative coefficients")
