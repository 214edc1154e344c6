"""Hamiltonian-path counting and the classical congruences.

Counting uses dynamic programming over vertex subsets.  The vertices are
split into a low and a high half, and the table keeps one packed integer
per (high-half set, end vertex) with a field per low-half set, wide
enough that no count carries into the next; the brute-force backtracking
count from ``redei_berge.oracles`` cross-checks it.  On tournaments the
count is always odd, and modulo 4 it is determined by the number of
nontrivial odd cycles, which ``redei_berge.oracles`` also counts, on the
table of cycles through every vertex set; for any digraph the count has the same parity as
the complement's.  Redei's and Berge's statements need only parities,
so their reports read them from a GF(2) table, one bit per (vertex set,
last vertex) packed into one integer per vertex: the Redei report
carries ``hamps_mod2`` alone, and the Berge report the exact count of
the digraph beside the parity of its complement's (``rhs_mod2``).
"""

from redei_berge import (
    Digraph,
    count_hamiltonian_paths,
    random_tournament,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from redei_berge.oracles import (
    count_hamiltonian_paths_by_backtracking,
    count_nontrivial_odd_cycles,
)

cyclic = Digraph(3, [(0, 1), (1, 2), (2, 0)])
print("3-cycle tournament:")
print("  dp count:          ", count_hamiltonian_paths(cyclic))
print("  backtracking count:", count_hamiltonian_paths_by_backtracking(cyclic))
print("  nontrivial odd cycles:", count_nontrivial_odd_cycles(cyclic))
print("  redei report:", verify_redei(cyclic))
print("  mod-4 report:", verify_mod4(cyclic))

print("\nrandom tournaments on 8 vertices:")
for seed in range(5):
    t = random_tournament(8, seed=seed)
    hamps = count_hamiltonian_paths(t)
    odd = count_nontrivial_odd_cycles(t)
    print(
        f"  seed {seed}: hamps = {hamps:5d}, odd cycles = {odd:3d};"
        f" {hamps} mod 4 = {hamps % 4}, (1 + 2*{odd}) mod 4 = {(1 + 2 * odd) % 4}"
    )

print("\nparity against the complement, a loopy example:")
d = Digraph(3, [(0, 1), (1, 1), (2, 2)])
print("  complement's count:", count_hamiltonian_paths(d.complement()))
print("  ", verify_berge(d))
