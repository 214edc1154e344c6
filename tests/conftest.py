"""Shared example instances used across the test modules.

``THREE_LOOP`` is the 3-vertex digraph with arcs 0->1 and loops at 1 and 2;
its Redei--Berge function is p[3] + 2*p[2,1] + p[1,1,1] and its complement
has 4 Hamiltonian paths.  ``GESSEL`` produces the mixed-sign expansion
p[3] - p[2,1] + p[1,1,1].  ``REMARK`` has a 2-cycle yet a subtraction-free
expansion.  ``FIVE_TOURNAMENT`` is a 5-vertex tournament with 9 Hamiltonian
paths.  ``weighted_path_sum`` is a Held--Karp subset DP over weighted
Hamiltonian paths in ``Fraction`` arithmetic, and ``weighted_cycle_sums`` one
over the weighted Hamiltonian cycles of every vertex set in ``int``s, both
written without the package.  ``packed_partition_sum`` is the package's
set-partition sum on packed-field shape keys in place of list-indexed ones,
the oracle of that sum.  ``cycle_sum_odd_cycles`` is the package's
former odd-cycle count, the cycle-sum table summed over the odd vertex
sets, the oracle of the count on the exact path table.  ``drawn_digraph`` and ``drawn_tournament`` draw
arc by arc from a ``random.Random``, the draws that ``random_digraph``,
``random_tournament`` and the random sweeps must reproduce.
"""

import itertools
import random
from fractions import Fraction

from redei_berge import Digraph
from redei_berge.hamilton import _cycle_sums, _indicator

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


def drawn_digraph(rng: random.Random, n: int, arc_probability: float) -> Digraph:
    if not 0.0 <= arc_probability <= 1.0:
        raise ValueError(f"arc probability {arc_probability} outside [0, 1]")
    return Digraph(
        n,
        (
            (u, v)
            for u in range(n)
            for v in range(n)
            if rng.random() < arc_probability
        ),
    )


def drawn_tournament(rng: random.Random, n: int) -> Digraph:
    return Digraph(
        n,
        (
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in itertools.combinations(range(n), 2)
        ),
    )


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


def packed_partition_sum(n: int, block_weight) -> dict[tuple[int, ...], int]:
    """Sum, over the set partitions of 0..n-1, of the product of the
    ``int``s ``block_weight[B]`` over the blocks B (bitmasks), keyed by the
    partition of block sizes.  The next block always holds the lowest
    uncovered vertex, so each set partition is built once: O(3^n) block
    choices.

    A state's partition is one packed ``int``: field k, of
    ``n.bit_length()`` bits, holds the number of blocks of size k.  No size
    occurs more than n times, so no field carries into the next, and adding
    a block of size k adds ``1 << k * bits``.
    """
    bits = n.bit_length()
    full = (1 << n) - 1
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for covered in range(full):
        terms = states.pop(covered, None)
        if not terms:
            continue
        low = ~covered & (covered + 1)  # the lowest uncovered vertex
        rest = full & ~covered & ~low
        sub = rest
        while True:
            block = sub | low
            weight = block_weight[block]
            if weight:
                step = 1 << block.bit_count() * bits
                target = states.setdefault(covered | block, {})
                for shape, coeff in terms.items():
                    grown = shape + step
                    target[grown] = target.get(grown, 0) + coeff * weight
            if not sub:
                break
            sub = (sub - 1) & rest
    field = (1 << bits) - 1
    return {
        tuple(k for k in range(n, 0, -1) for _ in range(shape >> k * bits & field)): c
        for shape, c in states.get(full, {}).items()
        if c
    }


def cycle_sum_odd_cycles(d: Digraph) -> int:
    """Number of nontrivial odd cycles of d: the cycle-sum table (one entry
    per vertex set, its Hamiltonian cycles) summed over the vertex sets of
    odd size at least 3."""
    sums = _cycle_sums(d.n, _indicator(d))
    return sum(c for S, c in enumerate(sums) if (k := S.bit_count()) & 1 and k > 1)
