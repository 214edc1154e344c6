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
the oracle of that sum, and ``inclusion_exclusion_partition_sum`` the same
sum by inclusion--exclusion over vertex sets, written without the package.
``major_index_sum`` and ``principal_specialisation`` are the two sides of
the stable principal specialisation of U_D, the listing sum of
q^maj_D(w) by a subset DP and the image of a power-sum expansion, also
written without the package.  ``drawn_digraph`` and ``drawn_tournament``
draw arc by arc from a ``random.Random``, the draws that ``random_digraph``,
``random_tournament`` and the random sweeps must reproduce.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import add, mul

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


def _zeta(n: int, z: list[int]) -> list[int]:
    """z[X] replaced by the sum of z[B] over the subsets B of X, by one
    in-place pass per vertex on list slices: contiguous runs for the high
    vertices, strided slices for the low ones."""
    size = 1 << n
    for i in range(n):
        step = 1 << i
        if step * step <= size // 2:  # few offsets: one strided slice each
            for o in range(step):
                z[step + o :: 2 * step] = map(add, z[step + o :: 2 * step], z[o :: 2 * step])
        else:  # few runs: one contiguous slice each
            for start in range(0, size, 2 * step):
                high = slice(start + step, start + 2 * step)
                z[high] = map(add, z[high], z[start : start + step])
    return z


def inclusion_exclusion_partition_sum(n: int, block_weight) -> dict[tuple[int, ...], int]:
    """The sum of ``packed_partition_sum`` by inclusion--exclusion
    (Björklund, Husfeldt and Koivisto, "Set partitioning via
    inclusion--exclusion", SIAM J. Comput. 2009): for block sizes
    lambda_1 >= ... >= lambda_l summing to n, sum_X (-1)^(n - |X|)
    prod_i Z_(lambda_i)(X) counts the l-tuples of blocks of those sizes
    that cover the n vertices, each set partition once per order of its
    equal blocks, so dividing by prod_k m_k(lambda)! gives the coefficient.
    Z_k is the zeta transform of the blocks of size k.

    The products over X are shared along a trie of the parts of size at
    least 2; each node closes its partition with parts of size 1, by the
    vector ones[j] = (-1)^(n - |X|) Z_1(X)^j, which carries the sign."""
    size = 1 << n
    ranks = [X.bit_count() for X in range(size)]
    zeta = {
        k: _zeta(n, [w if r == k else 0 for w, r in zip(block_weight, ranks)])
        for k in range(1, n + 1)
    }
    live = [k for k in range(n, 1, -1) if any(zeta[k])]
    ones = [[-1 if (n - r) & 1 else 1 for r in ranks]]
    for _ in range(n):
        ones.append(list(map(mul, ones[-1], zeta[1])))
    terms = {}

    def extend(products: list[int], parts: tuple[int, ...], room: int) -> None:
        total = sum(map(mul, products, ones[room]))
        if total:
            shape = (*parts, *(1,) * room)
            orders = math.prod(math.factorial(shape.count(k)) for k in set(shape))
            count, rest = divmod(total, orders)
            assert not rest, (shape, total)
            terms[shape] = count
        for k in live:
            if k <= room and (not parts or k <= parts[-1]):
                extend(list(map(mul, products, zeta[k])), (*parts, k), room - k)

    extend([1] * size, (), n)
    return terms


def major_index_sum(n: int, rows) -> list[int]:
    """The coefficients of q^0 .. q^(n(n-1)/2) in the sum, over the listings
    w of 0..n-1, of q^maj_D(w), where maj_D(w) sums the positions p at
    which (w_p, w_(p+1)) is an arc (``rows[u]`` has bit v set iff (u, v)
    is one).  ends[T][u] is one packed ``int`` over the listings of T
    ending at u, field k counting those of maj k: a listing of T - u
    ending at v, then u, whose last step, at position |T| - 1, adds to maj
    when v -> u is an arc.  A field never counts more than n! listings,
    so none carries into the next."""
    if n == 0:
        return [1]
    width = math.factorial(n).bit_length()
    ins = [sum(1 << v for v in range(n) if rows[v] >> u & 1) for u in range(n)]
    members = [()]
    for v in range(n):
        members += [m + (v,) for m in members]
    ends = [None] * (1 << n)
    for T in range(1, 1 << n):
        shift = (T.bit_count() - 1) * width
        row = [0] * n
        for u in members[T]:
            S = T ^ 1 << u
            prev = ends[S]
            arcs, others = 0, 0 if S else 1  # the listing (u) alone
            for v in members[S & ins[u]]:
                arcs += prev[v]
            for v in members[S & ~ins[u]]:
                others += prev[v]
            row[u] = others + (arcs << shift)
        ends[T] = row
        # T - j is read last here when j and every vertex above it are in T
        j = n - 1
        while j >= 0 and T >> j & 1:
            ends[T ^ 1 << j] = None
            j -= 1
    total = sum(ends[-1])
    field = (1 << width) - 1
    return [total >> k * width & field for k in range(n * (n - 1) // 2 + 1)]


def principal_specialisation(n: int, terms) -> list:
    """The coefficients of q^0 .. q^(n(n-1)/2) of prod_(i=1..n) (1 - q^i)
    times the image of sum_lambda c_lambda p_lambda under
    p_k -> 1 / (1 - q^k), for ``terms`` {lambda: c_lambda} with every
    lambda a partition of n.  Each lambda's product is a polynomial, so
    the divisions by 1 - q^k, one recurrence each, are exact."""
    top = [1]  # prod_(i=1..n) (1 - q^i)
    for i in range(1, n + 1):
        top = [c - (top[k - i] if k >= i else 0) for k, c in enumerate(top + [0] * i)]
    degree = n * (n - 1) // 2
    out = [0] * (degree + 1)
    for shape, c in terms.items():
        poly = list(top)
        for part in shape:
            for k in range(part, len(poly)):
                poly[k] += poly[k - part]
        assert not any(poly[degree + 1 :]), shape
        out = [a + c * b for a, b in zip(out, poly)]
    return out
