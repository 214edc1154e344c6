"""Exact Hamiltonian-path and simple-cycle counting, plus the classical
congruence checks (parity of tournament path counts, the mod-4 refinement,
and the parity link between a digraph and its complement).

Paths are counted by two engines on one layout, :func:`_cuts`: an ``int``
with one field per vertex set, and per vertex v the mask of the fields of
the sets without v and the shift that moves each onto the set with v.
Both extend paths by that AND-and-shift step, a few whole-``int``
operations per vertex, so their loops run over vertices, never over the
sets the fields stand for.

- :func:`_path_table`, the exact engine, is the subset DP of Bellman and
  Held--Karp on a two-level table: one ``int`` per (high-half set,
  vertex), one field per low-half set.  The low half is filled by
  in-place sweeps, and it runs only 1 + min(#tails, #heads) of them, over
  the back arcs u -> v, u > v, inside the low half: a simple path takes
  each vertex as a tail once and as a head once.  So both callers first
  relabel the digraph once by :func:`_run_order`, greedy acyclic runs,
  which leaves a nearly acyclic low half: 1 to 3 sweeps on a random
  14-vertex tournament where the natural order needs 4 to 7.  It serves
  two counts, each at a field width that no count carries out of, so
  both are exact:

  - :func:`_count_dp`, hamps, behind :func:`count_hamiltonian_paths`
    (the count ``hamps`` prints, the Berge report's ``hamps``, the
    ``zeta`` and ``lemmas`` checks) and :func:`verify_mod4`;
  - :func:`_odd_cycles`, the nontrivial odd cycles behind the mod-4
    report: cycles closed at a root are paths, so each is counted at its
    minimal vertex in the order of :func:`_run_order`, one table per
    root, on a suffix of that order.

- :func:`_path_parity`, hamps mod 2, is the same step over GF(2) at one
  bit per set, with every vertex in the low half: it runs the same
  1 + min(#tails, #heads) rounds, on the same order.  It serves the
  checks that need only a parity: :func:`verify_redei`, and hamps(D^c) of
  a D that is not a tournament in Berge's report.

The public entry points refuse more than ``DP_VERTEX_CAP`` vertices
before either engine builds anything.  Their brute-force check,
depth-first extension of partial paths, is
:func:`oracles.count_hamiltonian_paths_by_backtracking`.  Loops never
matter to paths: a path visits distinct vertices, so both read
``Digraph.ins``, the in-neighbour masks, which drop them.  The
zero-vertex digraph has exactly one Hamiltonian path (the empty list) by
convention.

The reports are built here.  :func:`_hamps_report`, the whole output of
``redei-berge hamps``, orders D's vertices once, runs one exact count, of
D, and builds all three reports from it, mod 4 only up to
``ODD_CYCLE_CAP``, the cap that :func:`verify_mod4` keeps.  The odd-cycle
count's check is :func:`oracles.count_nontrivial_odd_cycles`, on the
cycle-sum table.  Berge's report reads the parity of T^c for a
tournament T from hamps(T): the complement of a tournament is, loops
aside, its converse, whose Hamiltonian paths are those of T read
backwards, so hamps(T^c) = hamps(T).

The cycle-sum table (weighted Hamiltonian cycles of every vertex subset,
where a single vertex reads its diagonal weight) and the set-partition sum
over it are the engine behind every route in :mod:`core`.  Each of those
routes refuses more than ``CYCLE_SUM_CAP`` vertices before building a
table.  The engine runs on plain ``int``s only: a route with rational
weights scales them to integers first and divides once per output
coefficient (see :mod:`core`), so no ``Fraction`` enters its inner loops.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterator, Sequence

from .digraph import Digraph
from .limits import DP_VERTEX_CAP, ODD_CYCLE_CAP, _check_cap


def count_hamiltonian_paths(d: Digraph) -> int:
    """Number of directed paths visiting every vertex exactly once, by
    dynamic programming over vertex subsets.  With the first
    min(ceil(n/2), 7) vertices of the order of :func:`_run_order` as the
    low half (:func:`_low_n`), one packed ``int`` per (high-half set H,
    vertex v) has one field per low-half set L, counting the paths that
    cover exactly H + L and end at v.  The fields are
    ``factorial(n - 1).bit_length()`` bits wide and none carries into the
    next, so the count is exact.

    >>> count_hamiltonian_paths(Digraph(3, [(0, 1), (1, 1), (2, 2)]))
    0
    >>> count_hamiltonian_paths(Digraph(3, [(0, 1), (1, 1), (2, 2)]).complement())
    4
    """
    _check_cap(d.n, "vertices", DP_VERTEX_CAP, "path-count")
    return _count_dp(_run_order(d.ins))


def _count_dp(preds: Sequence[int]) -> int:
    """hamps of the digraph whose in-neighbour masks are ``preds`` (no
    loops), exact, from the last entry of :func:`_path_table` with every
    vertex a start, at ``factorial(n - 1).bit_length()`` bits per field.  A
    field counts the paths that end at one vertex, at most (n - 1)!, or, in
    a sweep's sum, the paths of a set S ending anywhere, at most |S|!.  That
    exceeds (n - 1)! only for the full set, whose field is the top one and
    contains the vertex it ends at: the cut clears it, and its carry leaves
    the int above every field, where the cut clears it too.  So no field
    carries into the next, and the count read from the top fields of the
    full set is exact.
    """
    n = len(preds)
    if not n:
        return 1  # the empty path
    width = factorial(n - 1).bit_length()
    for ends in _path_table(preds, (1 << n) - 1, width):
        pass  # only the last entry, the full high half, is read
    # no int holds a bit above its top field, the full low-half set
    top = ((1 << _low_n(n)) - 1) * width
    return sum(end >> top for end in ends)


def _run_order(ins: Sequence[int]) -> list[int]:
    """The in-neighbour masks ``ins`` relabelled in greedy acyclic runs, the
    one vertex order of a digraph's path tables.  A run takes, while any
    candidate is left, the candidate with the fewest in-arcs from the other
    candidates, and drops it and its in-neighbours from the candidates; so
    no arc enters a vertex from a later one of its run.  The next run
    starts on the vertices not yet placed.  Each table's low half is a
    stretch of this order, so it holds few back arcs, and
    :func:`_path_table` runs only the sweeps they need.

    >>> _run_order([0b110, 0b000, 0b010])  # 1 -> 2 -> 0 and 1 -> 0
    [0, 1, 3]
    """
    n = len(ins)
    order = []
    left = (1 << n) - 1  # the vertices not yet placed
    while left:
        free = left  # the candidates of this run
        while free:
            fewest, rest = n, free
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                arcs = (ins[u] & free).bit_count()
                if arcs < fewest:
                    fewest, v = arcs, u
            order.append(v)
            left ^= 1 << v
            free &= ~(ins[v] | 1 << v)
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    relabelled = []
    for v in order:
        mask, rest = 0, ins[v]
        while rest:
            mask |= bit[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        relabelled.append(mask)
    return relabelled


def _path_table(preds: Sequence[int], start: int, width: int) -> Iterator[list[int]]:
    """The exact two-level path table on k = ``len(preds)`` vertices, one
    entry at a time: ``preds[v]`` is the mask of v's in-neighbours (no
    loops), and a path may begin only at a vertex of the mask ``start``.
    The first min(ceil(k/2), 7) vertices form the low half
    (:func:`_low_n`) and the others the high half.  For each high-half set
    H, in increasing order, it yields one ``int`` per vertex v, whose field
    L (a low-half set), of ``width`` bits, counts the paths from ``start``
    that cover exactly H + L and end at v.
    The caller picks ``width`` so that no field carries into the next.

    - A high v in H: the sum of its predecessors' ints for H - v, plus the
      path {v} itself when H = {v} and v is a start.  Whole-int adds, no
      loop over L.
    - The low vs: in-place sweeps over v = 0, 1, ..., each setting v's
      int to the sum of its predecessors' ints, cut to the fields without
      v and shifted by 2^v fields (L to L + v), the layout of
      :func:`_cuts`.  The high predecessors' part of that sum is fixed
      for H and added once.  A sweep reads the low ints as they stand, so
      it extends a path along any run of arcs u -> v with u < v; every
      field only grows towards its count.

    The sweeps stop at 1 + min(#tails, #heads) of the low half's back arcs
    u -> v, u > v (:func:`_sweeps`).  After r sweeps a field holds every
    path whose final run of low vertices takes fewer than r back arcs: the
    part before that run ends at a high vertex, whose int the entries of
    smaller sets give in full.  A path enters each vertex once and leaves
    it once, so its back arcs have distinct tails and distinct heads, and
    there are at most min(#tails, #heads) of them.  The last low vertex
    heads no back arc, so the bound is at most the low half's size, the
    sweeps a worst-case order needs; on the order of :func:`_run_order` it
    is far smaller.

    The cap of 7 low vertices trades the low half's int arithmetic, about
    low_n^2 adds of 2^low_n-field ints per high set, against the
    interpreter's work per high set, 2^(k - low_n) of them: above 14
    vertices a low half of ceil(k/2) is slower.

    The entry of H is read last by H plus the highest high vertex outside
    H, and freed there.  Every set that holds the top high vertex frees at
    least the set without it, so at most half the entries, plus the one
    being built, are live at once: of the table's 2^k k width bits, about
    0.45 at k = 14.
    """
    k = len(preds)
    low_n = _low_n(k)
    low = (1 << low_n) - 1
    high_start = start >> low_n
    members = _members(max(low_n, k - low_n))  # both halves' sets
    # per high vertex: its low predecessors, and its high predecessors as
    # a high-half mask; per low vertex: its predecessors and its cut
    highs = [(members[p & low], p >> low_n) for p in preds[low_n:]]
    cuts = _cuts(low_n, width)
    lows = [(v, members[preds[v] & low], *cut) for v, cut in enumerate(cuts)]
    sweeps = _sweeps([p & low for p in preds[:low_n]])
    table = []
    for high in range(1 << k - low_n):
        ends = [0] * k
        for j in members[high]:
            low_preds, high_preds = highs[j]
            below = table[high ^ 1 << j]
            total = high_start >> j & 1 if high == 1 << j else 0  # the path {v}
            for u in low_preds:
                total += below[u]
            for i in members[high_preds & high]:
                total += below[low_n + i]
            ends[low_n + j] = total
        # the paths that enter each low v from the high half; with H empty,
        # the empty path, which a start v extends to the path {v}
        entering = []
        for v in range(low_n):
            total = 0 if high else start >> v & 1
            for i in members[preds[v] >> low_n & high]:
                total += ends[low_n + i]
            entering.append(total)
        for _ in range(sweeps):
            for (v, low_preds, without, shift), total in zip(lows, entering):
                for u in low_preds:
                    total += ends[u]
                ends[v] = (total & without) << shift
        table.append(ends)
        yield ends
        # H - j is read last here when j and every high vertex above it
        # are in H: each later set that holds H - j holds j too
        j = k - low_n - 1
        while j >= 0 and high >> j & 1:
            table[high ^ 1 << j] = None
            j -= 1


def _low_n(k: int) -> int:
    """The size of the low half of a k-vertex path table: ceil(k/2), but
    at most 7 (see :func:`_path_table`)."""
    return min((k + 1) // 2, 7)


def _sweeps(low_preds: Sequence[int]) -> int:
    """The in-place sweeps that fill :func:`_path_table`'s low half, whose
    vertices' in-neighbours inside it are ``low_preds``: 1 + the smaller
    of the numbers of tails and of heads of its back arcs u -> v, u > v.

    >>> _sweeps([0b110, 0b000, 0b000])  # 1 -> 0 and 2 -> 0: one per path
    2
    >>> _sweeps([0b110, 0b100, 0b000])  # and 2 -> 1: the path 2 -> 1 -> 0
    3
    """
    heads = tails = 0
    for v, p in enumerate(low_preds):
        back = p >> v + 1 << v + 1
        if back:
            heads |= 1 << v
            tails |= back
    return 1 + min(heads.bit_count(), tails.bit_count())


def _path_parity(preds: Sequence[int]) -> int:
    """hamps mod 2 of the digraph whose in-neighbour masks are ``preds`` (no
    loops), from a bit-sliced table over GF(2): one ``int`` per vertex v,
    whose bit S is the parity of the paths that cover exactly S and end at
    v.  A round sets, for each v in turn, v's int to the XOR of the empty
    path and its predecessors' ints as they stand, cut to the sets without
    v and shifted left by 2^v (S to S + {v}): the layout of :func:`_cuts`
    at one bit per set.  A round is the same linear recomputation as a
    low-half sweep of :func:`_path_table`, with every vertex low, so after
    r rounds the table holds every path with fewer than r back arcs u -> v,
    u > v, over GF(2) as over the integers, and it runs the
    :func:`_sweeps` of ``preds``, 1 + min(#tails, #heads) <= n rounds.  The
    table is two rows of n 2^n-bit ``int``s, the ends and the masks; each
    round does O(n^2) word-parallel operations, and no loop visits a subset.

    >>> _path_parity(Digraph(3, [(0, 1), (1, 1), (2, 2)]).complement().ins)
    0
    >>> _path_parity(Digraph(3, [(0, 1), (1, 2), (2, 0)]).ins)
    1
    """
    n = len(preds)
    if not n:
        return 1  # the empty path
    steps = [
        ([u for u in range(n) if p >> u & 1], *cut)
        for p, cut in zip(preds, _cuts(n, 1))
    ]
    ends = [0] * n
    for _ in range(_sweeps(preds)):
        for v, (us, without, shift) in enumerate(steps):
            paths = 1  # the empty path, which the shift turns into {v}
            for u in us:
                paths ^= ends[u]
            ends[v] = (paths & without) << shift
    top = (1 << n) - 1  # the bit of the full set
    return sum(end >> top for end in ends) & 1


@cache
def _cuts(k: int, width: int) -> tuple[tuple[int, int], ...]:
    """The one layout of both path engines: an ``int`` of 2^k fields of
    ``width`` bits, field L for the set L of vertices below k.  For each
    v < k, the mask of the fields of the sets without v (2^v fields set,
    2^v clear, repeated) and the shift of 2^v fields, which takes L to
    L + v.  Cached: each root of :func:`_odd_cycles` and every table of a
    sweep reuse it.  The largest, the parity's ``_cuts(22, 1)``, is 22
    masks of 2^22 bits, about 11 MB."""
    cuts = []
    for v in range(k):
        without = (1 << (width << v)) - 1
        step = 2 << v
        while step < 1 << k:
            without |= without << step * width
            step <<= 1
        cuts.append((without, width << v))
    return tuple(cuts)


@cache
def _members(k: int) -> tuple[tuple[int, ...], ...]:
    """The vertices of every k-bit mask x, in increasing order, at index x:
    the masks with top vertex v are those below 1 << v, plus v."""
    members: list[tuple[int, ...]] = [()]
    for v in range(k):
        members += [m + (v,) for m in members]
    return tuple(members)


def _cycle_sums(
    n: int, w: Sequence[Sequence[int]], roots: int | None = None
) -> list[int]:
    """For every vertex bitmask S, the sum over the cyclic orderings of S of
    the product of ``w[u][v]`` over the cyclic arcs; a single vertex v
    gives ``w[v][v]``.  Each ordering is a path from the minimal vertex of
    S through larger vertices, closed back onto it: O(2^n n^2).  All roots
    share one path table, each seeded with its one-vertex path, which
    closes through its diagonal weight.  With ``roots``, only the sets
    whose minimal vertex is below it are summed (the others read 0).  The
    weights are plain ``int``s: a rational route clears its denominators
    before calling in.
    """
    sums = [0] * (1 << n)
    members = _members(n)
    support = [sum(1 << v for v in range(n) if row[v]) for row in w]
    # (mask | 1 << u) * n + u, for u outside mask, is mask * n + step[u]
    step = [(n << u) + u for u in range(n)]
    # [mask * n + v]: the paths from the lowest vertex of mask through mask
    # to v.  Root s reads and writes only the masks whose lowest vertex is
    # s, so the roots share one table.
    paths = [0] * (n << n)
    for s in range(n if roots is None else roots):
        above = (1 << n) - (2 << s)  # the vertices larger than s
        back = [row[s] for row in w]  # the closing arcs v -> s
        paths[(1 << s) * n + s] = 1  # the path {s}, closed by w[s][s]
        for mask in range(1 << s, 1 << n, 2 << s):  # s and larger vertices
            base = mask * n
            free = above & ~mask
            closed = 0
            for v in members[mask]:
                value = paths[base + v]
                if value:
                    closed += value * back[v]
                    row = w[v]
                    for u in members[support[v] & free]:
                        paths[base + step[u]] += value * row[u]
            sums[mask] = closed
    return sums


@cache
def _partition_table(n: int) -> tuple[tuple, tuple]:
    """``shapes[c]``, the partitions of each c <= n in canonical order
    (largest first part first, then the same on the rest), and
    ``grow[c][k][i]``, the index of ``shapes[c][i]`` plus a part k among
    ``shapes[c + k]`` (``grow[c][0]`` is empty: no block is empty).  Every
    caller is capped, so the cache holds at most ``CYCLE_SUM_CAP + 1``
    tables."""
    shapes = [((),)]
    for c in range(1, n + 1):
        shapes.append(
            tuple(
                (first, *rest)
                for first in range(c, 0, -1)
                for rest in shapes[c - first]
                if not rest or rest[0] <= first
            )
        )
    index = [{shape: i for i, shape in enumerate(row)} for row in shapes]
    grow = []
    for c, row in enumerate(shapes):
        into = [()]
        for k in range(1, n - c + 1):
            grown = [tuple(sorted((*shape, k), reverse=True)) for shape in row]
            into.append(tuple(index[c + k][shape] for shape in grown))
        grow.append(tuple(into))
    return tuple(shapes), tuple(grow)


def _partition_sum(n: int, block_weight: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Sum, over the set partitions of 0..n-1, of the product of the
    ``int``s ``block_weight[B]`` over the blocks B (bitmasks), keyed by the
    partition of block sizes, in canonical order.  The next block always
    holds the lowest uncovered vertex, so each set partition is built once:
    O(3^n) block choices.

    The state of a covered set of c vertices is a list of terms, one per
    partition of c in the order of :func:`_partition_table`, freed once
    read.  Each state lists its nonzero terms once, and a block of size k
    adds each into the term of its shape grown by k.
    """
    shapes, grow = _partition_table(n)
    full = (1 << n) - 1
    states: list[list[int] | None] = [None] * (1 << n)
    states[0] = [1]
    for covered in range(full):
        terms = states[covered]
        if terms is None:
            continue
        states[covered] = None
        live = [(i, t) for i, t in enumerate(terms) if t]
        if not live:
            continue
        c = covered.bit_count()
        moves = grow[c]
        low = ~covered & (covered + 1)  # the lowest uncovered vertex
        rest = full & ~covered & ~low
        sub = rest
        while True:
            block = sub | low
            weight = block_weight[block]
            if weight:
                k = block.bit_count()
                target = states[covered | block]
                if target is None:
                    target = states[covered | block] = [0] * len(shapes[c + k])
                g = moves[k]
                for i, t in live:
                    target[g[i]] += t * weight
            if not sub:
                break
            sub = (sub - 1) & rest
    terms = states[full]
    return {shape: t for shape, t in zip(shapes[n], terms or ()) if t}


def _indicator(d: Digraph) -> list[list[int]]:
    return [[row >> v & 1 for v in range(d.n)] for row in d.rows]


def _odd_cycles(preds: Sequence[int]) -> int:
    """The number of nontrivial odd cycles, rotation classes of odd length
    > 1 all of whose cyclic arcs are present, of the digraph whose
    in-neighbour masks are ``preds`` (no loops), uncapped: callers gate it
    by ``ODD_CYCLE_CAP``.  Each cycle is counted at its minimal vertex s,
    as a path through vertices above s from an out-neighbour of s to an
    in-neighbour of s: per root,
    :func:`_path_table` on the k = n - 1 - s vertices above s, started at
    the out-neighbours of s.  For each H the ends of the in-neighbours of s
    are summed into one of two accumulators, by the parity of |H|; at the
    end each is cut to the fields L with |H| + |L| even (so the cycle's set
    has 1 + |H| + |L| vertices, odd and at least 3: every path has a
    vertex), and the fields are folded into one once.

    The fields are ``(factorial(k) << k).bit_length()`` bits wide.  A field
    of the table counts paths of one set, at most k!; an accumulated field
    sums them over the sets H, at most 2^k k!; and a fold adds fields of
    one cut sum, whose total is the number of the root's cycles, at most
    the sum over the subsets S above s of |S|!, below 2^k k!.  So neither
    the accumulation nor the fold carries into the next field.
    """
    n = len(preds)
    total = 0
    for s in range(n - 2):  # an odd cycle through s has two more vertices
        above = s + 1
        out = sum(1 << i for i, p in enumerate(preds[above:]) if p >> s & 1)
        back = preds[s] >> above
        if not out or not back:
            continue
        k = n - above
        width, even, odd = _odd_layout(k)
        closing = [v for v in range(k) if back >> v & 1]
        sums = [0, 0]  # per parity of |H|
        table = _path_table([p >> above for p in preds[above:]], out, width)
        for high, ends in enumerate(table):
            parity = high.bit_count() & 1
            for v in closing:
                sums[parity] += ends[v]
        folded = (sums[0] & even) + (sums[1] & odd)
        bits = width << _low_n(k)
        while bits > width:
            bits >>= 1
            folded = (folded & (1 << bits) - 1) + (folded >> bits)
        total += folded
    return total


@cache
def _odd_layout(k: int) -> tuple[int, int, int]:
    """The field width of :func:`_odd_cycles` for a root with k vertices
    above it, and the masks of the fields L of even and of odd size on the
    low half of :func:`_low_n`, built by doubling.  Every production caller
    is capped, so k <= ``ODD_CYCLE_CAP`` - 1."""
    width = (factorial(k) << k).bit_length()
    even, odd = (1 << width) - 1, 0
    for v in range(_low_n(k)):
        shift = width << v
        even, odd = even | odd << shift, odd | even << shift
    return width, even, odd


def _redei_report(n: int, hamps_mod2: int) -> dict:
    return {
        "theorem": "redei",
        "n": n,
        "hamps_mod2": hamps_mod2,
        "pass": hamps_mod2 == 1,
    }


def _mod4_report(n: int, hamps: int, odd_cycles: int) -> dict:
    lhs = hamps % 4
    rhs = (1 + 2 * odd_cycles) % 4
    return {
        "theorem": "mod4",
        "n": n,
        "hamps": str(hamps),
        "odd_cycles": odd_cycles,
        "lhs_mod4": lhs,
        "rhs_mod4": rhs,
        "pass": lhs == rhs,
    }


def _berge_report(d: Digraph, hamps: int, tournament: bool) -> dict:
    """Berge's report from hamps(d).  The parity of hamps(d^c) is read from
    the GF(2) table, or, for a tournament, is hamps mod 2: its complement is,
    loops aside, its converse, whose paths are those of d read backwards."""
    if tournament:
        complement_mod2 = hamps % 2
    else:
        complement_mod2 = _path_parity(_run_order(d.complement().ins))
    return {
        "theorem": "berge",
        "n": d.n,
        "hamps": str(hamps),
        "lhs_mod2": hamps % 2,
        "rhs_mod2": complement_mod2,
        "pass": hamps % 2 == complement_mod2,
    }


def _hamps_report(d: Digraph) -> dict:
    """The payload of ``redei-berge hamps``: hamps(d), exact, and every
    report built from it (Rédei's and mod 4, up to ``ODD_CYCLE_CAP``, for a
    tournament only), on one order of its vertices."""
    _check_cap(d.n, "vertices", DP_VERTEX_CAP, "path-count")
    tournament = d.is_tournament()
    preds = _run_order(d.ins)
    hamps = _count_dp(preds)
    report = {"n": d.n, "hamps": str(hamps), "tournament": tournament}
    report["berge"] = _berge_report(d, hamps, tournament)
    if tournament:
        report["redei"] = _redei_report(d.n, hamps % 2)
        if d.n <= ODD_CYCLE_CAP:
            report["mod4"] = _mod4_report(d.n, hamps, _odd_cycles(preds))
    return report


def verify_redei(d: Digraph) -> dict:
    """Check that a tournament has an odd number of Hamiltonian paths, from
    the GF(2) path table; the cap refuses before it is built."""
    if not d.is_tournament():
        raise ValueError("input digraph is not a tournament")
    _check_cap(d.n, "vertices", DP_VERTEX_CAP, "path-count")
    return _redei_report(d.n, _path_parity(_run_order(d.ins)))


def verify_mod4(d: Digraph) -> dict:
    """Check that a tournament's Hamiltonian-path count is congruent to
    1 + 2 * (number of nontrivial odd cycles) modulo 4: the mod-4 report
    of :func:`_hamps_report`, on one order of the vertices, after both
    refusals, so the odd-cycle cap refuses before any path is counted."""
    if not d.is_tournament():
        raise ValueError("input digraph is not a tournament")
    _check_cap(d.n, "vertices", ODD_CYCLE_CAP, "odd-cycle")
    preds = _run_order(d.ins)
    return _mod4_report(d.n, _count_dp(preds), _odd_cycles(preds))


def verify_berge(d: Digraph) -> dict:
    """Check that a digraph and its complement have Hamiltonian-path counts
    of the same parity: the exact count of d, which the report carries, and
    the parity of its complement (see :func:`_berge_report`)."""
    return _berge_report(d, count_hamiltonian_paths(d), d.is_tournament())
