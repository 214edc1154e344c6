"""Shared example instances used across the test modules.

``THREE_LOOP`` is the 3-vertex digraph with arcs 0->1 and loops at 1 and 2;
its Redei--Berge function is p[3] + 2*p[2,1] + p[1,1,1] and its complement
has 4 Hamiltonian paths.  ``GESSEL`` produces the mixed-sign expansion
p[3] - p[2,1] + p[1,1,1].  ``REMARK`` has a 2-cycle yet a subtraction-free
expansion.  ``FIVE_TOURNAMENT`` is a 5-vertex tournament with 9 Hamiltonian
paths.  ``weighted_path_sum`` is a Held--Karp subset DP over weighted
Hamiltonian paths in ``Fraction`` arithmetic, and ``weighted_cycle_sums`` one
over the weighted Hamiltonian cycles of every vertex set in ``int``s, both
written without the package.
"""

from fractions import Fraction

from redei_berge import Digraph

THREE_LOOP = Digraph(3, [(0, 1), (1, 1), (2, 2)])

GESSEL = Digraph(3, [(0, 2), (1, 0), (2, 0), (2, 1)])

REMARK = Digraph(4, [(0, 1), (1, 0), (1, 2), (1, 3), (2, 3)])

FIVE_TOURNAMENT = Digraph(
    5,
    [
        (0, 1),
        (0, 3),
        (0, 4),
        (1, 4),
        (2, 0),
        (2, 1),
        (3, 1),
        (3, 2),
        (3, 4),
        (4, 2),
    ],
)


def transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def weighted_path_sum(n: int, s) -> Fraction:
    """Sum, over the Hamiltonian paths v_1 ... v_n of the complete digraph,
    of the product of s[v_k][v_(k+1)]: ending[S][v] sums the paths that
    cover exactly S and end at v."""
    if n == 0:
        return Fraction(1)
    full = (1 << n) - 1
    ending = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        ending[1 << v][v] = Fraction(1)
    for mask in range(1, full):
        for v, value in enumerate(ending[mask]):
            if value:
                for u in range(n):
                    if not mask >> u & 1:
                        ending[mask | 1 << u][u] += value * s[v][u]
    return sum(ending[full], Fraction(0))


def weighted_cycle_sums(n: int, w, roots: int) -> list[int]:
    """For every vertex bitmask S whose lowest vertex r is below ``roots``,
    the sum over the cyclic orderings of S of the product of w[u][v] over
    the cyclic arcs, a single vertex reading w[r][r]; 0 for the other sets.
    For each root r, ending[H][v] sums the paths from r that cover exactly
    r and the vertices above it in H (bit i of H for vertex r + 1 + i) and
    end at v."""
    sums = [0] * (1 << n)
    for r in range(roots):
        above = n - r - 1
        ending = [[0] * n for _ in range(1 << above)]
        ending[0][r] = 1
        for high in range(1 << above):
            mask = 1 << r | high << r + 1
            for v, value in enumerate(ending[high]):
                if value:
                    sums[mask] += value * w[v][r]
                    for u in range(r + 1, n):
                        if not mask >> u & 1:
                            ending[high | 1 << u - r - 1][u] += value * w[v][u]
    return sums
