"""Counting machinery behind the power-sum formulas, exposed as
independently testable identities: linear arc sets and path covers,
signed inclusion-exclusion sums and the power-sum form rebuilt from
them, level-respecting listings, the cycle-colouring sum, permutations
filtered by their cycles, the literal per-cycle weight sum over all
permutations, the literal listing sums of the definition routes,
Hamiltonian paths counted by backtracking, and the nontrivial odd cycles
counted on the cycle-sum table, an engine independent of the path table
that the mod-4 report counts them on.

A permutation sigma of 0..n-1 is its image tuple, ``sigma[v]`` being the
image of v, as ``itertools.permutations(range(n))`` yields it.  A cycle is
a tuple of distinct vertices, each mapped to the next and the last to the
first; :func:`cycles_of` starts each one at its minimal vertex.

The routines here deliberately favour direct enumeration over cleverness;
they are the oracles the rest of the package is checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .digraph import Digraph
from .hamilton import _cycle_sums, _indicator, count_hamiltonian_paths
from .limits import (
    CYCLE_SUM_CAP,
    DP_VERTEX_CAP,
    ENUMERATION_CAP,
    FACTORIAL_CAP,
    SUBSET_CAP,
    _check_cap,
    _check_power,
    _require_int,
)
from .polynomials import DescentSet, FundamentalQSym, PowerSumPolynomial, partition_of

if TYPE_CHECKING:
    from .core import ArcWeights


def cycles_of(sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation with images ``sigma``, each starting at
    its minimal vertex, ordered by that vertex.

    >>> cycles_of((6, 5, 4, 3, 2, 1, 0))   # i -> 6 - i
    ((0, 6), (1, 5), (2, 4), (3,))
    >>> cycles_of((1, 2, 0, 4, 3, 5))
    ((0, 1, 2), (3, 4), (5,))
    """
    for v in sigma:
        _require_int(v, "image")
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a bijection on 0..{n - 1}: {tuple(sigma)!r}")
    cycles = []
    for start in range(n):
        cycle = [start]
        while sigma[cycle[-1]] > start:
            cycle.append(sigma[cycle[-1]])
        if sigma[cycle[-1]] == start:  # else a smaller vertex starts this cycle
            cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_type(sigma: Sequence[int]) -> tuple[int, ...]:
    """Partition of n recording the cycle lengths of sigma."""
    return partition_of(map(len, cycles_of(sigma)))


def _cyclic_arcs(cycle: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    # each vertex to the next, the last back to the first; (v,) gives (v, v)
    return zip(cycle, cycle[1:] + cycle[:1])


def is_cycle(d: Digraph, cycle: tuple[int, ...]) -> bool:
    """True iff every cyclic arc of the cycle is an arc of ``d``."""
    return all(d.has_arc(u, v) for u, v in _cyclic_arcs(cycle))


def path_cover_of(d: Digraph) -> tuple[tuple[int, ...], ...] | None:
    """The unique path cover whose arc set equals that of ``d``, or None.

    A set of arcs is the arc set of a path cover iff every vertex has
    in-degree and out-degree at most 1 and no directed cycle is present.
    Vertices on no arc become singleton paths.  Paths come out ordered by
    their first vertex.
    """
    n = d.n
    succ = [-1] * n
    pred = [-1] * n
    for u, v in d.arcs():
        if succ[u] != -1 or pred[v] != -1:
            return None  # out- or in-degree above 1
        succ[u] = v
        pred[v] = u
    paths = []
    covered = 0
    for v in range(n):
        if pred[v] != -1:
            continue  # not the start of a chain
        chain = [v]
        while succ[chain[-1]] != -1:
            chain.append(succ[chain[-1]])
        covered += len(chain)
        paths.append(tuple(chain))
    if covered != n:
        return None  # leftover vertices sit on directed cycles
    return tuple(paths)


def is_linear(d: Digraph) -> bool:
    """True iff the arcs form the arc set of some path cover."""
    return path_cover_of(d) is not None


def _path_covers(vertices: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    # every path cover once: the block containing the first vertex is chosen,
    # then the rest is covered recursively
    if not vertices:
        yield ()
        return
    first, rest = vertices[0], vertices[1:]
    for k in range(len(rest) + 1):
        for others in itertools.combinations(rest, k):
            chosen = set(others)
            remaining = tuple(v for v in rest if v not in chosen)
            for block in itertools.permutations((first, *others)):
                for tail in _path_covers(remaining):
                    yield (block, *tail)


def is_arc_set_of_path_cover(d: Digraph) -> bool:
    """Exhaustive-search form of :func:`is_linear`: scan all path covers of
    the vertex set and compare arc sets.  Only for small n."""
    _check_cap(d.n, "vertices", FACTORIAL_CAP, "factorial")
    target = frozenset(d.arcs())
    for cover in _path_covers(tuple(range(d.n))):
        arcs = frozenset(
            (path[i], path[i + 1]) for path in cover for i in range(len(path) - 1)
        )
        if arcs == target:
            return True
    return False


def count_listings_containing(d: Digraph) -> int:
    """Number of listings of 0..n-1 whose consecutive-pair set contains
    every arc of ``d``, by direct enumeration.

    Equals (number of paths in the cover)! when the arc set is linear, and
    0 otherwise.
    """
    n = d.n
    _check_cap(n, "vertices", FACTORIAL_CAP, "factorial")
    pairs = list(d.arcs())
    total = 0
    for listing in itertools.permutations(range(n)):
        position = {v: i for i, v in enumerate(listing)}
        if all(position[v] == position[u] + 1 for u, v in pairs):
            total += 1
    return total


def count_perms_containing(d: Digraph) -> int:
    """Number of permutations sigma with sigma(u) = v for every arc (u, v)
    of ``d``, by direct enumeration."""
    n = d.n
    _check_cap(n, "vertices", FACTORIAL_CAP, "factorial")
    pairs = list(d.arcs())
    total = 0
    for images in itertools.permutations(range(n)):
        if all(images[u] == v for u, v in pairs):
            total += 1
    return total


def signed_linear_sum(d: Digraph) -> int:
    """Sum over the linear subsets F of the arc set of (-1)^|F| times the
    number of permutations whose functional graph contains F.

    The linear subsets are enumerated by backtracking (a linear subset
    contains no loops, keeps degrees at most 1 and closes no cycle); the
    permutation count for a linear F is (n - |F|)!, the factorial of its
    cover size.  The whole sum equals the number of Hamiltonian paths of
    the complement.
    """
    n = d.n
    _check_cap(n, "vertices", FACTORIAL_CAP, "factorial")
    arcs = [(u, v) for u, v in d.arcs() if u != v]
    factorial = [math.factorial(k) for k in range(n + 1)]
    succ = [-1] * n
    pred = [-1] * n
    other_end = list(range(n))
    total = factorial[n]  # the empty subset

    def extend(start: int, size: int, sign: int) -> None:
        nonlocal total
        for j in range(start, len(arcs)):
            u, v = arcs[j]
            if succ[u] != -1 or pred[v] != -1 or other_end[u] == v:
                continue  # degree violation or closes a cycle
            head, tail = other_end[u], other_end[v]
            succ[u] = v
            pred[v] = u
            other_end[head] = tail
            other_end[tail] = head
            total += -sign * factorial[n - size - 1]
            extend(j + 1, size + 1, -sign)
            succ[u] = -1
            pred[v] = -1
            other_end[head] = u
            other_end[tail] = v

    extend(0, 0, 1)
    return total


def signed_sum_per_perm(d: Digraph, sigma: Sequence[int]) -> int:
    """Sum of (-1)^|F| over the linear subsets F of the intersection of the
    functional graph of sigma with the arc set, by direct enumeration of
    all subsets.

    Evaluates to (-1)^(excess of the digraph-cycles of sigma) when every
    cycle of sigma lies in the digraph or its complement, and to 0
    otherwise.
    """
    if len(sigma) != d.n:
        raise ValueError(f"permutation on {len(sigma)} vertices, digraph on {d.n}")
    common = [
        (u, v) for c in cycles_of(sigma) for u, v in _cyclic_arcs(c) if d.has_arc(u, v)
    ]
    _check_cap(len(common), "arcs", SUBSET_CAP, "subset")
    total = 0
    for r in range(len(common) + 1):
        for subset in itertools.combinations(common, r):
            if is_linear(Digraph(d.n, subset)):
                total += (-1) ** r
    return total


def redei_berge_by_signed_perms(d: Digraph) -> PowerSumPolynomial:
    """Sum over all n! permutations sigma of :func:`signed_sum_per_perm`
    times p_{type sigma}: the signed power-sum form, rebuilt one
    permutation at a time from the subsets of its common arcs."""
    _check_cap(d.n, "vertices", FACTORIAL_CAP, "factorial")
    terms: dict[tuple[int, ...], int] = {}
    for sigma in itertools.permutations(range(d.n)):
        weight = signed_sum_per_perm(d, sigma)
        if weight:
            key = cycle_type(sigma)
            terms[key] = terms.get(key, 0) + weight
    return PowerSumPolynomial(terms)


def _check_levels(d: Digraph, levels: Sequence[int]) -> None:
    """Refuses a level list of the wrong length or with a level that is not
    a positive integer, naming it."""
    if len(levels) != d.n:
        raise ValueError(f"expected {d.n} levels, got {len(levels)}")
    for level in levels:
        _require_int(level, "level")
        if level < 1:
            raise ValueError(f"level {level} is not positive")


def level_subdigraph(d: Digraph, levels: Sequence[int], level: int) -> Digraph:
    """Subdigraph induced on the vertices of the given level, relabelled to
    0..k-1 in increasing vertex order."""
    _check_levels(d, levels)
    order = [v for v in range(d.n) if levels[v] == level]
    pairs = itertools.product(range(len(order)), repeat=2)
    arcs = [(i, j) for i, j in pairs if d.has_arc(order[i], order[j])]
    return Digraph(len(order), arcs)


def count_friendly_listings(d: Digraph, levels: Sequence[int]) -> int:
    """Number of listings whose levels are weakly increasing and which rise
    strictly in level across every arc, by direct enumeration.

    Equals the product, over the distinct levels, of the Hamiltonian-path
    counts of the complements of the level subdigraphs.
    """
    _check_levels(d, levels)
    _check_cap(d.n, "vertices", FACTORIAL_CAP, "factorial")
    total = 0
    for listing in itertools.permutations(range(d.n)):
        ok = True
        for i in range(d.n - 1):
            a, b = levels[listing[i]], levels[listing[i + 1]]
            if a > b:
                ok = False
                break
            if a == b and d.has_arc(listing[i], listing[i + 1]):
                ok = False
                break
        if ok:
            total += 1
    return total


def friendly_product(d: Digraph, levels: Sequence[int]) -> int:
    """The product side of the level decomposition: over each occupied
    level, the Hamiltonian paths of the complemented level subdigraph."""
    _check_levels(d, levels)
    product = 1
    for level in sorted(set(levels)):
        sub = level_subdigraph(d, levels, level)
        product *= count_hamiltonian_paths(sub.complement())
    return product


def polya_sum(sigma: Sequence[int]) -> FundamentalQSym:
    """p_{type sigma} in the fundamental basis, by brute force.

    The monomials x_{f(0)} * ... * x_{f(n-1)} over the maps f constant on
    every cycle of sigma, grouped by the variables f uses, are the
    colourings of the cycles onto {1..k}: each contributes M_alpha, where
    alpha_i is the total length of the cycles coloured i.  Each M_T is then
    rewritten as the sum of (-1)^|S - T| L_S over the descent sets S
    containing T.
    """
    n = len(sigma)
    cycles = cycles_of(sigma)
    c = len(cycles)
    _check_power([(c, c)], "cycle colourings", ENUMERATION_CAP, "enumeration")
    monomial: dict[frozenset[int], int] = {}  # cut set of alpha -> count
    for colours in itertools.product(range(c), repeat=c):
        used = set(colours)
        if used != set(range(len(used))):
            continue  # not onto {0..k-1}
        alpha = [0] * len(used)
        for cycle, colour in zip(cycles, colours):
            alpha[colour] += len(cycle)
        key = frozenset(itertools.accumulate(alpha[:-1]))
        monomial[key] = monomial.get(key, 0) + 1
    terms: dict[DescentSet, int] = {}
    for cut, count in monomial.items():
        free = [i for i in range(1, n) if i not in cut]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                key = DescentSet(n, cut | frozenset(extra))
                terms[key] = terms.get(key, 0) + (-1) ** r * count
    return FundamentalQSym(n, terms)


def signed_subset_sum(size: int) -> int:
    """Sum of (-1)^|F| over all subsets F of a set of the given size,
    computed by enumeration; 1 for the empty set and 0 otherwise."""
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    _check_cap(size, "set elements", SUBSET_CAP, "subset")
    total = 0
    for index in range(1 << size):
        total += -1 if index.bit_count() & 1 else 1
    return total


def _permutations_whose_cycles(n: int, admits: Callable) -> Iterator[tuple[int, ...]]:
    _check_cap(n, "vertices", FACTORIAL_CAP, "factorial")
    return (
        sigma
        for sigma in itertools.permutations(range(n))
        if all(map(admits, cycles_of(sigma)))
    )


def mixed_cycle_permutations(d: Digraph) -> list[tuple[int, ...]]:
    """Permutations whose every cycle is a cycle of ``d`` or of its
    complement (a length-1 cycle always is one of the two)."""
    complement = d.complement()
    return list(
        _permutations_whose_cycles(
            d.n, lambda c: is_cycle(d, c) or is_cycle(complement, c)
        )
    )


def d_cycle_permutations(d: Digraph) -> list[tuple[int, ...]]:
    """Permutations whose every nontrivial cycle is a cycle of ``d``."""
    return list(
        _permutations_whose_cycles(d.n, lambda c: len(c) == 1 or is_cycle(d, c))
    )


def d_cycle_excess(d: Digraph, sigma: Sequence[int]) -> int:
    """Sum of (length - 1) over the cycles of sigma that are cycles of d.

    This is the exponent of -1 attached to sigma in the signed power-sum
    formula.  Length-1 cycles contribute 0 whether or not the loop is
    present, so the value is insensitive to loops.
    """
    if len(sigma) != d.n:
        raise ValueError(f"permutation on {len(sigma)} vertices, digraph on {d.n}")
    return sum(len(c) - 1 for c in cycles_of(sigma) if is_cycle(d, c))


def is_risky(d: Digraph, cycle: tuple[int, ...]) -> bool:
    """Even length, and the cycle or its reversal is a cycle of ``d``."""
    if len(cycle) % 2 != 0:
        return False
    return is_cycle(d, cycle) or is_cycle(d, cycle[::-1])


def cycle_weight_sum(n: int, weight: Callable) -> PowerSumPolynomial:
    """Sum over all n! permutations sigma of the product of ``weight(c)``
    over the cycles c of sigma, times p_{type sigma}: the literal form that
    every power-sum formula specializes."""
    terms: dict[tuple[int, ...], object] = {}
    for sigma in _permutations_whose_cycles(n, weight):
        cycles = cycles_of(sigma)
        key = partition_of(map(len, cycles))
        terms[key] = terms.get(key, 0) + math.prod(map(weight, cycles))
    return PowerSumPolynomial(terms)


def count_hamiltonian_paths_by_backtracking(d: Digraph) -> int:
    """Number of Hamiltonian paths by depth-first extension of partial
    paths from every start vertex: the oracle of the path-count DP."""
    _check_cap(d.n, "vertices", DP_VERTEX_CAP, "path-count")
    n = d.n
    if n == 0:
        return 1
    rows = [row & ~(1 << u) for u, row in enumerate(d.rows)]  # loops dropped
    full = (1 << n) - 1
    total = 0

    def extend(last: int, visited: int) -> None:
        nonlocal total
        if visited == full:
            total += 1
            return
        nbrs = rows[last] & ~visited
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            extend(bit.bit_length() - 1, visited | bit)

    for start in range(n):
        extend(start, 1 << start)
    return total


def count_nontrivial_odd_cycles(d: Digraph) -> int:
    """Number of rotation classes of odd length > 1 all of whose cyclic
    arcs are present: the cycle-sum table (one entry per vertex set, its
    Hamiltonian cycles) summed over the vertex sets of odd size at least 3.
    Loops play no part.  Refuses more than ``CYCLE_SUM_CAP`` vertices
    before the table is built.

    >>> count_nontrivial_odd_cycles(Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)]))
    1
    """
    _check_cap(d.n, "vertices", CYCLE_SUM_CAP, "cycle-sum")
    sums = _cycle_sums(d.n, _indicator(d))
    return sum(c for S, c in enumerate(sums) if (k := S.bit_count()) & 1 and k > 1)


def redei_berge_by_listings(d: Digraph) -> FundamentalQSym:
    """The defining sum of the Redei--Berge function, one listing at a
    time: L_{Des(w)} summed over all n! listings w."""
    _check_cap(d.n, "vertices", FACTORIAL_CAP, "factorial")
    counts: dict[frozenset[int], int] = {}
    for w in itertools.permutations(range(d.n)):
        key = frozenset(k for k in range(1, d.n) if d.has_arc(w[k - 1], w[k]))
        counts[key] = counts.get(key, 0) + 1
    return FundamentalQSym(d.n, {DescentSet(d.n, S): c for S, c in counts.items()})


def deformed_by_listings(weights: ArcWeights) -> FundamentalQSym:
    """The defining sum of the deformation, one listing at a time.

    Since 1 = s - t, the listing w gives L_S the weight
    prod_{k in S} (-t(w_k, w_{k+1})) times prod_{k not in S} s(w_k, w_{k+1}):
    summed over the S inside the strict rises of an index sequence, these
    weights leave the product of s over its stalls."""
    n = weights.n
    _check_cap(n, "vertices", FACTORIAL_CAP, "factorial")
    totals: dict[frozenset[int], Fraction] = {}
    for w in itertools.permutations(range(n)):
        terms = [(frozenset(), Fraction(1))]  # (descent set, weight)
        for k in range(1, n):
            stall, rise = weights.s(w[k - 1], w[k]), -weights.t(w[k - 1], w[k])
            terms = [(S, c * stall) for S, c in terms if stall] + [
                (S | {k}, c * rise) for S, c in terms if rise
            ]
        for S, c in terms:
            totals[S] = totals.get(S, 0) + c
    return FundamentalQSym(n, {DescentSet(n, S): c for S, c in totals.items()})
