"""Counting machinery behind the power-sum formulas, exposed as
independently testable identities: linear arc sets and path covers, the
functional graph of a permutation, signed inclusion-exclusion sums,
level-respecting listings, the cycle-colouring sum, permutations
filtered by their cycles, and the literal per-cycle weight sum over all
permutations.

The routines here deliberately favour direct enumeration over cleverness;
they are the oracles the rest of the package is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .digraph import Digraph
from .hamilton import count_hamiltonian_paths
from .kernel import CycleClass, DescentSet, Permutation, all_permutations
from .limits import (
    ENUMERATION_CAP,
    FACTORIAL_CAP,
    SUBSET_CAP,
    CapExceededError,
)
from .polynomials import FundamentalQSym, PowerSumPolynomial


@dataclass(frozen=True)
class ArcSet:
    """A set of ordered vertex pairs on 0..n-1."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs", frozenset(self.pairs))
        for u, v in self.pairs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"pair ({u}, {v}) outside 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, pairs: Sequence[tuple[int, int]] = ()) -> "ArcSet":
        return cls(n, frozenset(pairs))


def path_cover_of(arc_set: ArcSet) -> tuple[tuple[int, ...], ...] | None:
    """The unique path cover whose arc set equals ``arc_set``, or None.

    A set of pairs is the arc set of a path cover iff every vertex has
    in-degree and out-degree at most 1 and no directed cycle is present.
    Vertices on no pair become singleton paths.  Paths come out ordered by
    their first vertex.
    """
    n = arc_set.n
    succ = [-1] * n
    pred = [-1] * n
    for u, v in arc_set.pairs:
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


def is_linear(arc_set: ArcSet) -> bool:
    """True iff the pairs form the arc set of some path cover."""
    return path_cover_of(arc_set) is not None


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


def is_arc_set_of_path_cover(arc_set: ArcSet) -> bool:
    """Exhaustive-search form of :func:`is_linear`: scan all path covers of
    the vertex set and compare arc sets.  Only for small n."""
    if arc_set.n > FACTORIAL_CAP:
        raise CapExceededError(
            f"path-cover search on {arc_set.n} vertices exceeds the cap"
        )
    target = arc_set.pairs
    for cover in _path_covers(tuple(range(arc_set.n))):
        arcs = frozenset(
            (path[i], path[i + 1]) for path in cover for i in range(len(path) - 1)
        )
        if arcs == target:
            return True
    return False


def functional_graph(sigma: Permutation) -> ArcSet:
    """The n pairs (v, sigma(v)); equals the union of the cyclic arc sets
    of the cycles of sigma."""
    return ArcSet.of(sigma.n, [(v, sigma(v)) for v in range(sigma.n)])


def count_listings_containing(arc_set: ArcSet) -> int:
    """Number of listings of 0..n-1 whose consecutive-pair set contains
    every given pair, by direct enumeration.

    Equals (number of paths in the cover)! when the set is linear, and 0
    otherwise.
    """
    n = arc_set.n
    if n > FACTORIAL_CAP:
        raise CapExceededError(f"{n}! listings exceeds the enumeration cap")
    pairs = arc_set.pairs
    total = 0
    for listing in itertools.permutations(range(n)):
        position = {v: i for i, v in enumerate(listing)}
        if all(position[v] == position[u] + 1 for u, v in pairs):
            total += 1
    return total


def count_perms_containing(arc_set: ArcSet) -> int:
    """Number of permutations sigma with sigma(u) = v for every given pair
    (u, v), by direct enumeration."""
    n = arc_set.n
    if n > FACTORIAL_CAP:
        raise CapExceededError(f"{n}! permutations exceeds the enumeration cap")
    pairs = arc_set.pairs
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
    arcs = [(u, v) for u, v in d.arcs() if u != v]
    if len(arcs) > SUBSET_CAP:
        raise CapExceededError(
            f"{len(arcs)} arcs exceeds the subset-enumeration cap of {SUBSET_CAP}"
        )
    n = d.n
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


def signed_sum_per_perm(d: Digraph, sigma: Permutation) -> int:
    """Sum of (-1)^|F| over the linear subsets F of the intersection of the
    functional graph of sigma with the arc set, by direct enumeration of
    all subsets.

    Evaluates to (-1)^(excess of the digraph-cycles of sigma) when every
    cycle of sigma lies in the digraph or its complement, and to 0
    otherwise.
    """
    if sigma.n != d.n:
        raise ValueError(f"permutation on {sigma.n} vertices, digraph on {d.n}")
    common = [(u, sigma(u)) for u in range(d.n) if d.has_arc(u, sigma(u))]
    if len(common) > SUBSET_CAP:
        raise CapExceededError(f"{len(common)} arcs exceeds the subset cap")
    total = 0
    for r in range(len(common) + 1):
        for subset in itertools.combinations(common, r):
            if is_linear(ArcSet.of(d.n, subset)):
                total += (-1) ** r
    return total


def level_subdigraph(d: Digraph, levels: Sequence[int], level: int) -> Digraph:
    """Subdigraph induced on the vertices of the given level, relabelled to
    0..k-1 in increasing vertex order."""
    if len(levels) != d.n:
        raise ValueError(f"expected {d.n} levels, got {len(levels)}")
    return d.induced(v for v in range(d.n) if levels[v] == level)


def count_friendly_listings(d: Digraph, levels: Sequence[int]) -> int:
    """Number of listings whose levels are weakly increasing and which rise
    strictly in level across every arc, by direct enumeration.

    Equals the product, over the distinct levels, of the Hamiltonian-path
    counts of the complements of the level subdigraphs.
    """
    if len(levels) != d.n:
        raise ValueError(f"expected {d.n} levels, got {len(levels)}")
    if any(not isinstance(x, int) or x < 1 for x in levels):
        raise ValueError("levels must be positive integers")
    if d.n > FACTORIAL_CAP:
        raise CapExceededError(f"{d.n}! listings exceeds the enumeration cap")
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
    product = 1
    for level in sorted(set(levels)):
        sub = level_subdigraph(d, levels, level)
        product *= count_hamiltonian_paths(sub.complement()).value
    return product


def polya_sum(sigma: Permutation) -> FundamentalQSym:
    """p_{type sigma} in the fundamental basis, by brute force.

    The monomials x_{f(0)} * ... * x_{f(n-1)} over the maps f constant on
    every cycle of sigma, grouped by the variables f uses, are the
    colourings of the cycles onto {1..k}: each contributes M_alpha, where
    alpha_i is the total length of the cycles coloured i.  Each M_T is then
    rewritten as the sum of (-1)^|S - T| L_S over the descent sets S
    containing T.
    """
    cycles = sigma.cycles
    c = len(cycles)
    if c**c > ENUMERATION_CAP:
        raise CapExceededError(f"{c}^{c} cycle colourings exceeds the cap")
    monomial: dict[DescentSet, int] = {}
    for colours in itertools.product(range(c), repeat=c):
        used = set(colours)
        if used != set(range(len(used))):
            continue  # not onto {0..k-1}
        alpha = [0] * len(used)
        for cycle, colour in zip(cycles, colours):
            alpha[colour] += len(cycle)
        key = DescentSet.from_composition(alpha)
        monomial[key] = monomial.get(key, 0) + 1
    terms: dict[DescentSet, int] = {}
    for cut, count in monomial.items():
        free = [i for i in range(1, sigma.n) if i not in cut]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                key = DescentSet(sigma.n, cut.members | frozenset(extra))
                terms[key] = terms.get(key, 0) + (-1) ** r * count
    return FundamentalQSym(sigma.n, terms)


def signed_subset_sum(size: int) -> int:
    """Sum of (-1)^|F| over all subsets F of a set of the given size,
    computed by enumeration; 1 for the empty set and 0 otherwise."""
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    if size > SUBSET_CAP:
        raise CapExceededError(f"2^{size} subsets exceeds the cap of 2^{SUBSET_CAP}")
    total = 0
    for index in range(1 << size):
        total += -1 if index.bit_count() & 1 else 1
    return total


def _permutations_whose_cycles(n: int, admits: Callable) -> Iterator[Permutation]:
    if n > FACTORIAL_CAP:
        raise CapExceededError(f"{n}! permutations exceeds the enumeration cap")
    return (sigma for sigma in all_permutations(n) if all(map(admits, sigma.cycles)))


def mixed_cycle_permutations(d: Digraph) -> list[Permutation]:
    """Permutations whose every cycle is a cycle of ``d`` or of its
    complement (a length-1 cycle always is one of the two)."""
    complement = d.complement()
    return list(
        _permutations_whose_cycles(
            d.n, lambda c: d.is_cycle(c) or complement.is_cycle(c)
        )
    )


def d_cycle_permutations(d: Digraph) -> list[Permutation]:
    """Permutations whose every nontrivial cycle is a cycle of ``d``."""
    return list(
        _permutations_whose_cycles(d.n, lambda c: not c.is_nontrivial or d.is_cycle(c))
    )


def d_cycle_excess(d: Digraph, sigma: Permutation) -> int:
    """Sum of (length - 1) over the cycles of sigma that are cycles of d.

    This is the exponent of -1 attached to sigma in the signed power-sum
    formula.  Length-1 cycles contribute 0 whether or not the loop is
    present, so the value is insensitive to loops.
    """
    if sigma.n != d.n:
        raise ValueError(f"permutation on {sigma.n} vertices, digraph on {d.n}")
    return sum(len(c) - 1 for c in sigma.cycles if d.is_cycle(c))


def is_risky(d: Digraph, cycle: CycleClass) -> bool:
    """Even length, and the class or its reversal is a cycle of ``d``."""
    if len(cycle) % 2 != 0:
        return False
    return d.is_cycle(cycle) or d.is_cycle(cycle.reversal())


def cycle_weight_sum(n: int, weight: Callable) -> PowerSumPolynomial:
    """Sum over all n! permutations sigma of the product of ``weight(c)``
    over the cycles c of sigma, times p_{type sigma}: the literal form that
    every power-sum formula specializes."""
    terms: dict[tuple[int, ...], object] = {}
    for sigma in _permutations_whose_cycles(n, weight):
        key = sigma.cycle_type
        terms[key] = terms.get(key, 0) + math.prod(map(weight, sigma.cycles))
    return PowerSumPolynomial(terms)
