import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIVE_TOURNAMENT,
    THREE_LOOP,
    inclusion_exclusion_partition_sum,
    packed_partition_sum,
    transitive_tournament,
    weighted_cycle_sums,
    weighted_path_sum,
)
from redei_berge import (
    ArcWeights,
    CapExceededError,
    Digraph,
    count_hamiltonian_paths,
    enumerate_digraphs,
    enumerate_tournaments,
    random_digraph,
    random_tournament,
    redei_berge_powersum,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from redei_berge import hamilton, oracles
from redei_berge.hamilton import (
    _count_dp,
    _cycle_sums,
    _indicator,
    _low_n,
    _members,
    _odd_cycles,
    _partition_sum,
    _partition_table,
    _path_parity,
    _path_table,
    _run_order,
    _sweeps,
)
from redei_berge.limits import CYCLE_SUM_CAP
from redei_berge.oracles import (
    count_hamiltonian_paths_by_backtracking,
    count_nontrivial_odd_cycles,
    d_cycle_excess,
    is_cycle,
    mixed_cycle_permutations,
)
from redei_berge.polynomials import _cleared, _partition_sort_key


def brute_force_odd_cycles(d: Digraph) -> int:
    """Independent class enumeration: all vertex subsets, all cyclic orders
    with the minimal vertex pinned first."""
    total = 0
    for k in range(3, d.n + 1, 2):
        for subset in itertools.combinations(range(d.n), k):
            first, rest = subset[0], subset[1:]
            for order in itertools.permutations(rest):
                if is_cycle(d, (first, *order)):
                    total += 1
    return total


def odd_cycles(d: Digraph) -> int:
    """The path-table count of the nontrivial odd cycles, on the vertex
    order that the mod-4 report gives it."""
    return _odd_cycles(_run_order(d.ins))


class TestCounting:
    def test_arcless(self):
        assert count_hamiltonian_paths(Digraph(4)) == 0
        assert count_hamiltonian_paths(Digraph(2)) == 0

    def test_complete_loop_free(self):
        # n! paths, the most any n-vertex digraph has: every field of the
        # full set's ints reaches (n - 1)!, the most its width holds, and
        # the round sums' top field reaches n!, whose carry the cut must
        # clear, so a field too narrow or an uncut carry changes the count
        for n in range(15):
            loop_free = [(u, v) for u in range(n) for v in range(n) if u != v]
            assert count_hamiltonian_paths(Digraph(n, loop_free)) == math.factorial(n)
            looped = Digraph(n, loop_free + [(v, v) for v in range(n)])
            assert count_hamiltonian_paths(looped) == math.factorial(n)

    def test_loops_do_not_matter(self):
        with_loops = Digraph(3, [(0, 1), (1, 2), (0, 0), (2, 2)])
        without = Digraph(3, [(0, 1), (1, 2)])
        assert (
            count_hamiltonian_paths(with_loops)
            == count_hamiltonian_paths(without)
            == 1
        )

    def test_complement_of_example_has_four(self):
        assert count_hamiltonian_paths(THREE_LOOP.complement()) == 4
        assert count_hamiltonian_paths(THREE_LOOP) == 0

    def test_empty_digraph_convention(self):
        assert count_hamiltonian_paths(Digraph(0)) == 1
        assert count_hamiltonian_paths_by_backtracking(Digraph(0)) == 1

    def test_cap(self):
        with pytest.raises(CapExceededError):
            count_hamiltonian_paths(Digraph(23))
        with pytest.raises(CapExceededError):
            count_hamiltonian_paths_by_backtracking(Digraph(23))

    def test_methods_agree_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                by_dp = count_hamiltonian_paths(d)
                assert by_dp == count_hamiltonian_paths_by_backtracking(d)

    def test_methods_agree_random_through_n10(self):
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randint(0, 10)
            d = random_digraph(n, rng.choice([0.2, 0.5, 0.8]), seed=rng.getrandbits(32))
            by_dp = count_hamiltonian_paths(d)
            assert by_dp == count_hamiltonian_paths_by_backtracking(d)

    def test_halves_of_unequal_size(self):
        # the low half is the first ceil(n/2) vertices, so at odd n it
        # holds one vertex more than the high half
        rng = random.Random(59)
        for n in (1, 3, 5, 7, 9):
            for p in (0.3, 0.6, 0.9):
                d = random_digraph(n, p, seed=rng.getrandbits(32))
                by_dp = _count_dp(d.ins)
                assert by_dp == count_hamiltonian_paths_by_backtracking(d)

    def test_exact_dp_field_table_memory(self):
        # 2^(n/2) high-half sets, n ints each, 2^(n/2) fields of width bits
        # per int: 2^n n width bits.  About 0.45 of it is measured, since
        # each set's entry is freed after its last reader; kept to the end,
        # the entries peak at about 0.87 of it, and a table of one int of
        # n fields per vertex subset at about 1.7.
        n = 14
        width = math.factorial(n - 1).bit_length()
        d = random_digraph(n, 0.5, seed=3)
        preds = d.ins
        tracemalloc.start()
        try:
            _count_dp(preds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**n * n * width // 64  # 0.625 of the bits

    def test_single_starts_sum_to_the_count_through_n9(self):
        # every path starts somewhere, so the table started at each {v} in
        # turn, low half and high half, sums to hamps
        for n in range(1, 10):
            width = math.factorial(n - 1).bit_length()
            top = ((1 << (n + 1) // 2) - 1) * width
            for d in (random_digraph(n, 0.5, seed=n), random_tournament(n, seed=n)):
                preds = d.ins
                starts = []
                for v in range(n):
                    *_, last = _path_table(preds, 1 << v, width)
                    starts.append(sum(end >> top for end in last))
                assert sum(starts) == count_hamiltonian_paths(d)

    def test_single_start_in_either_half(self):
        # a relabelled directed path has one Hamiltonian path, from its
        # first vertex: a low-half start, then a high-half one
        n = 9
        width = math.factorial(n - 1).bit_length()
        top = ((1 << (n + 1) // 2) - 1) * width
        for first in (2, 7):
            order = [first] + [v for v in range(n) if v != first]
            d = Digraph(n, list(zip(order, order[1:])))
            preds = d.ins
            for v in range(n):
                *_, last = _path_table(preds, 1 << v, width)
                assert sum(end >> top for end in last) == (v == first)

    def test_member_tables(self):
        for k in range(11):
            members = _members(k)
            assert len(members) == 1 << k
            for x, listed in enumerate(members):
                assert list(listed) == [v for v in range(k) if x >> v & 1]


def descending_low_path(k: int, seed: int) -> Digraph:
    """A k-vertex digraph whose low half holds the path low_n - 1 -> ... ->
    1 -> 0, every arc of it a back arc, and no other back arc: the sweep
    bound is ceil(k/2), the most it can be.  The high half's path low_n ->
    ... -> k - 1 -> low_n - 1 makes a Hamiltonian path end with that whole
    run, so every sweep is needed; the other arcs are random."""
    rng = random.Random(seed)
    low_n = (k + 1) // 2
    forced = {(v + 1, v) for v in range(low_n - 1)}
    forced |= {(v, v + 1) for v in range(low_n, k - 1)} | {(k - 1, low_n - 1)}
    arcs = [
        (u, v)
        for u in range(k)
        for v in range(k)
        if (u, v) in forced
        or u != v and (u >= low_n or v >= low_n or u < v) and rng.random() < 0.5
    ]
    return Digraph(k, arcs)


def relabelled(d: Digraph, rng: random.Random) -> Digraph:
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs()])


@pytest.fixture
def sweeps(monkeypatch):
    """The sweep count of every path table built while the test runs."""
    counts = []
    bound = hamilton._sweeps

    def recording(low_preds):
        counts.append(bound(low_preds))
        return counts[-1]

    monkeypatch.setattr(hamilton, "_sweeps", recording)
    return counts


class TestSweepBound:
    """The low half's sweeps stop at 1 + min(#tails, #heads) of its back
    arcs, which the vertex order of ``_run_order`` keeps small."""

    @pytest.mark.parametrize("k", range(8, 13))
    def test_tight_bound_on_a_descending_low_path(self, sweeps, k):
        # in the natural order the bound is ceil(k/2), and a path takes
        # every back arc, so one sweep fewer would miss it
        for seed in range(2):
            d = descending_low_path(k, seed=100 * k + seed)
            preds = d.ins
            hamps = _count_dp(preds)
            if k <= 9:
                assert hamps == count_hamiltonian_paths_by_backtracking(d)
            else:
                s = [
                    [int(u != v and row >> v & 1) for v in range(k)]
                    for u, row in enumerate(d.rows)
                ]
                assert hamps == weighted_path_sum(k, s)
            width = math.factorial(k - 1).bit_length()
            top = ((1 << (k + 1) // 2) - 1) * width
            starts = 0
            for v in range(k):
                *_, last = _path_table(preds, 1 << v, width)
                starts += sum(end >> top for end in last)
            assert starts == hamps
            assert sweeps == [(k + 1) // 2] * (k + 1)
            assert count_hamiltonian_paths(d) == hamps  # in the run order
            sweeps.clear()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 14).flatmap(
            lambda k: st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k)
        )
    )
    def test_bound_never_exceeds_half_the_vertices(self, masks):
        k = len(masks)
        low_n = (k + 1) // 2
        low = (1 << low_n) - 1
        preds = [p & ~(1 << v) for v, p in enumerate(masks)]  # no loops
        assert 1 <= _sweeps([p & low for p in preds[:low_n]]) <= max(low_n, 1)
        assert _sweeps([p & low for p in _run_order(preds)[:low_n]]) <= max(low_n, 1)

    def test_transitive_tournament_runs_one_sweep_per_table(self, sweeps):
        rng = random.Random(89)
        for n in (5, 9, 12):
            t = relabelled(transitive_tournament(n), rng)
            assert count_hamiltonian_paths(t) == 1
            assert odd_cycles(t) == 0
            assert sweeps and set(sweeps) == {1}
            sweeps.clear()
            # a run takes a source of the rest: the order is the acyclic one
            assert _run_order(t.ins) == list(transitive_tournament(n).ins)

    def test_sweeps_pinned_on_a_random_tournament(self, sweeps):
        # measured once: the natural order needs 6 sweeps, the run order 3
        t = random_tournament(14, seed=5)
        assert _count_dp(t.ins) == count_hamiltonian_paths(t)
        assert sweeps == [6, 3]


class TestRunOrder:
    """Both path engines run on the relabelled masks of ``_run_order``;
    their counts do not depend on labels."""

    @pytest.mark.parametrize("n", range(10))
    def test_count_matches_backtracking_at_every_n_through_9(self, n):
        rng = random.Random(97 + n)
        for _ in range(2 if n == 9 else 4):
            for d in (
                random_tournament(n, seed=rng.getrandbits(32)),
                *(random_digraph(n, p, seed=rng.getrandbits(32)) for p in (0.2, 0.5, 0.8)),
            ):
                assert count_hamiltonian_paths(d) == count_hamiltonian_paths_by_backtracking(d)

    def test_counts_unchanged_under_relabelling(self):
        # and equal to the tables on the natural order, whose sweeps differ
        rng = random.Random(103)
        for n in (6, 9, 12, 14):
            for d in (
                random_tournament(n, seed=rng.getrandbits(32)),
                *(random_digraph(n, p, seed=rng.getrandbits(32)) for p in (0.2, 0.5, 0.8)),
            ):
                hamps = _count_dp(d.ins)
                odd = _odd_cycles(d.ins)
                for _ in range(2):
                    moved = relabelled(d, rng)
                    assert count_hamiltonian_paths(moved) == hamps
                    assert _odd_cycles(_run_order(moved.ins)) == odd


def parities(d: Digraph) -> set[int]:
    """hamps(d) mod 2 from the GF(2) table on d's natural masks and on the
    masks of ``_run_order``: one value when the two agree."""
    return {_path_parity(d.ins), _path_parity(_run_order(d.ins))}


class TestPathParity:
    """The GF(2) path table, on natural and on relabelled masks, against
    the exact DP and the backtracking oracle, loops included."""

    def test_matches_exact_dp_through_n16(self):
        # every size, so every shift 2^v and every without-v mask is used;
        # above 14 one digraph and one tournament keep the exact DP cheap,
        # and a tournament's complement has the tournament's count
        rng = random.Random(71)
        for n in range(17):
            seeds = range(3) if n <= 12 else range(1)
            for seed in seeds:
                d = random_digraph(n, 0.5, seed=seed)
                t = random_tournament(n, seed=seed)
                hamps_t = count_hamiltonian_paths(t) % 2
                assert parities(d) == {_count_dp(d.ins) % 2}
                assert parities(t) == {hamps_t} == {1}
                assert parities(t.complement()) == {hamps_t}
                if n <= 14:
                    complement = d.complement()
                    hamps_c = _count_dp(complement.ins) % 2
                    assert parities(complement) == {hamps_c}
                    for p in (0.2, 0.8):
                        g = relabelled(random_digraph(n, p, seed=seed), rng)
                        assert parities(g) == {_count_dp(g.ins) % 2}
            assert parities(Digraph(n)) == {n <= 1}
            complete = Digraph(n, itertools.product(range(n), repeat=2))  # loops too
            assert parities(complete) == {math.factorial(n) % 2}

    def test_matches_backtracking_through_n9(self):
        rng = random.Random(67)
        digraphs = [Digraph(0), Digraph(1), Digraph(1, [(0, 0)])]  # one path each
        for n in range(10):
            for p in (0.25, 0.5, 0.75):
                digraphs.append(random_digraph(n, p, seed=rng.getrandbits(32)))
            digraphs.append(random_tournament(n, seed=rng.getrandbits(32)))
        for d in digraphs:
            assert parities(d) == {count_hamiltonian_paths_by_backtracking(d) % 2}
        assert [_path_parity(d.ins) for d in digraphs[:3]] == [1, 1, 1]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_descending_path_needs_every_round(self, n):
        # n - 1 -> ... -> 1 -> 0 takes n - 1 back arcs, the most a path can,
        # so its one Hamiltonian path reaches the full set in round n, the
        # last the bound allows; forward arcs add paths but no back arc
        path = [(v + 1, v) for v in range(n - 1)]
        line = Digraph(n, path)
        assert _sweeps(line.ins) == n
        assert _path_parity(line.ins) == 1
        rng = random.Random(n)
        forward = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3]
        d = Digraph(n, path + forward)
        assert _sweeps(d.ins) == n
        assert _path_parity(d.ins) == _count_dp(d.ins) % 2

    def test_table_keeps_2n_bits_per_vertex(self):
        # Two rows of n ints of 2^n bits (the ends, updated in place, and
        # the without-v masks).  The mask also keeps the parity right: an
        # in-place round can take a walk through several arcs, so without
        # it a walk that revisits a vertex can land on the full set.
        n = 14
        d = random_digraph(n, 0.5, seed=3)
        tracemalloc.start()
        try:
            _path_parity(d.ins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * 2**n // 8


class TestTournamentComplement:
    """The complement of a tournament is, loops aside, its converse, so
    both have the same Hamiltonian paths read backwards."""

    def test_every_tournament_through_n5(self):
        for n in range(6):
            for t in enumerate_tournaments(n):
                hamps = count_hamiltonian_paths(t)
                assert count_hamiltonian_paths(t.complement()) == hamps

    def test_seeded_tournaments_n6_to_n14(self):
        for n in range(6, 15):
            t = random_tournament(n, seed=600 + n)
            assert count_hamiltonian_paths(t.complement()) == count_hamiltonian_paths(t)


class TestBeyondTheOracle:
    """Checks on sizes the backtracking oracle cannot reach."""

    def test_reversing_every_arc_keeps_the_count(self):
        # a path read backwards is a path of the reversed digraph
        rng = random.Random(47)
        for n in range(11, 15):
            for d in (
                random_digraph(n, rng.choice([0.3, 0.5]), seed=rng.getrandbits(32)),
                random_tournament(n, seed=rng.getrandbits(32)),
            ):
                reversed_d = Digraph(n, [(v, u) for u, v in d.arcs()])
                assert count_hamiltonian_paths(reversed_d) == count_hamiltonian_paths(d)

    def test_held_karp_oracle_at_11_and_12_vertices(self):
        # conftest's Held--Karp sum over the complete digraph, with unit
        # weights on the non-loop arcs, shares no code with the package
        for n in (11, 12):
            for d in (
                random_digraph(n, 0.5, seed=5),
                random_tournament(n, seed=5),
                random_digraph(n, 0.2, seed=5),
            ):
                s = [
                    [int(u != v and row >> v & 1) for v in range(n)]
                    for u, row in enumerate(d.rows)
                ]
                assert count_hamiltonian_paths(d) == weighted_path_sum(n, s)

    def test_relabelling_across_the_halves_keeps_the_count(self):
        # v -> v + low_n mod n moves every low vertex into the high half,
        # but one at n = 13, where the low half is one vertex larger; at 15
        # and 16 vertices the low half stops at 7 and the high half is the
        # larger
        for n in range(13, 17):
            low_n = _low_n(n)
            for d in (
                random_digraph(n, 0.5, seed=n),
                random_tournament(n, seed=n),
            ):
                moved = Digraph(
                    n, [((u + low_n) % n, (v + low_n) % n) for u, v in d.arcs()]
                )
                assert count_hamiltonian_paths(moved) == count_hamiltonian_paths(d)

    def test_spot_checks_at_15_and_16_vertices(self):
        assert count_hamiltonian_paths(transitive_tournament(16)) == 1
        assert count_hamiltonian_paths(Digraph(16)) == 0
        for n, seed in ((15, 5), (16, 6)):
            assert count_hamiltonian_paths(random_tournament(n, seed=seed)) % 2 == 1


class TestOddCycleCounting:
    """The path-table count behind the mod-4 report against the brute-force
    class enumeration and the cycle-sum oracle."""

    def test_transitive_tournament(self):
        assert odd_cycles(transitive_tournament(5)) == 0

    def test_three_cycle(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert odd_cycles(d) == 1

    def test_five_tournament_matches_brute_force(self):
        assert odd_cycles(FIVE_TOURNAMENT) == brute_force_odd_cycles(FIVE_TOURNAMENT)

    def test_loops_and_two_cycles_not_counted(self):
        d = Digraph(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
        assert odd_cycles(d) == count_nontrivial_odd_cycles(d) == 0

    def test_matches_brute_force_random(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(0, 6)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            expected = brute_force_odd_cycles(d)
            assert odd_cycles(d) == count_nontrivial_odd_cycles(d) == expected

    def test_matches_brute_force_tournaments_n9(self):
        for n, seed in ((8, 1), (9, 2)):
            d = random_tournament(n, seed=seed)
            expected = brute_force_odd_cycles(d)
            assert odd_cycles(d) == count_nontrivial_odd_cycles(d) == expected

    def test_oracle_reaches_the_cycle_sum_cap_and_refuses_above_it(self, monkeypatch):
        for n in (13, 14):
            for d in (random_tournament(n, seed=n), random_digraph(n, 0.3, seed=n)):
                assert count_nontrivial_odd_cycles(d) == odd_cycles(d)

        def no_table(*args):
            raise AssertionError("built a table before the cap check")

        monkeypatch.setattr(oracles, "_cycle_sums", no_table)
        refusal = "^15 vertices exceeds the cycle-sum cap of 14$"
        with pytest.raises(CapExceededError, match=refusal):
            count_nontrivial_odd_cycles(random_tournament(15, seed=5))

    def test_matches_the_cycle_sum_count_through_n12(self):
        # tournaments, and random digraphs at densities 0.2 to 0.8, whose
        # loops must not count
        for n in range(13):
            for seed in range(2):
                t = random_tournament(n, seed=seed)
                d = random_digraph(n, 0.6, seed=seed)
                assert n < 2 or any(row >> v & 1 for v, row in enumerate(d.rows))
                assert odd_cycles(t) == count_nontrivial_odd_cycles(t)
                assert odd_cycles(d) == count_nontrivial_odd_cycles(d)
                for p in (0.2, 0.5, 0.8):
                    d = random_digraph(n, p, seed=100 + seed)
                    assert odd_cycles(d) == count_nontrivial_odd_cycles(d)

    def test_complete_digraph_through_n16(self):
        # the most cycles on n vertices, so the widest fields: C(n, k) sets
        # of each odd size k >= 3, with (k - 1)! cycles each
        for n in range(17):
            complete = Digraph(n, itertools.product(range(n), repeat=2))  # loops too
            count = sum(
                math.comb(n, k) * math.factorial(k - 1) for k in range(3, n + 1, 2)
            )
            assert odd_cycles(complete) == count
            if n <= CYCLE_SUM_CAP:
                assert count_nontrivial_odd_cycles(complete) == count

    def test_mod4_congruence_beyond_the_cap(self):
        for n in range(13, 17):
            t = random_tournament(n, seed=n)
            hamps = count_hamiltonian_paths(t)
            assert hamps % 4 == (1 + 2 * _odd_cycles(t.ins)) % 4


class TestCycleSumEngine:
    def test_partition_sum_of_unit_weights_counts_set_partitions(self):
        terms = _partition_sum(4, [1] * 16)
        assert terms == {(4,): 1, (3, 1): 4, (2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}
        assert _partition_sum(0, [1]) == {(): 1}

    def test_partition_sum_at_the_cap_keeps_every_packed_field_apart(self):
        # every shape of 14 is reached, each from the term lists of its
        # shapes less one part: the Bell(14) set partitions over 135 shapes
        terms = _partition_sum(14, [1] * (1 << 14))
        assert sum(terms.values()) == 190_899_322  # Bell(14)
        assert len(terms) == 135
        for shape, count in terms.items():
            orders = math.prod(math.factorial(part) for part in shape)
            repeats = math.prod(math.factorial(shape.count(k)) for k in set(shape))
            assert count == math.factorial(14) // (orders * repeats)

    def test_partition_table_lists_every_partition_in_canonical_order(self):
        shapes, grow = _partition_table(12)
        counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]  # p(c)
        assert [len(row) for row in shapes] == counts
        for c, row in enumerate(shapes):
            assert list(row) == sorted(row, key=_partition_sort_key)
            assert all(sum(shape) == c for shape in row)
            for k in range(1, 13 - c):
                grown = [shapes[c + k][i] for i in grow[c][k]]
                assert grown == [tuple(sorted((*shape, k), reverse=True)) for shape in row]

    @pytest.mark.parametrize("n", range(7))
    def test_partition_sum_matches_the_packed_oracle_with_zeros(self, n):
        rng = random.Random(700 + n)
        for _ in range(20):
            weights = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(1 << n)]
            terms = _partition_sum(n, weights)
            assert terms == packed_partition_sum(n, weights)
            assert list(terms) == sorted(terms, key=_partition_sort_key)

    @pytest.mark.parametrize("kind", ["signed", "tournament", "deformed", "apex"])
    @pytest.mark.parametrize("n", [10, 12])
    def test_partition_sum_matches_the_packed_oracle_on_route_weights(self, kind, n):
        # the block weights each route hands the partition sum
        if kind == "signed":
            t = [[-arc for arc in row] for row in _indicator(random_digraph(n, seed=n))]
            s = [[value + 1 for value in row] for row in t]
            weights = [a - b for a, b in zip(_cycle_sums(n, s), _cycle_sums(n, t))]
        elif kind == "tournament":
            here = _cycle_sums(n, _indicator(random_tournament(n, seed=n)))
            weights = [
                1 if S.bit_count() == 1 else 2 * here[S] if S.bit_count() % 2 else 0
                for S in range(1 << n)
            ]
        elif kind == "deformed":
            w = ArcWeights.random(n, seed=n)
            t, scales = _cleared([[w.t(u, v) for v in range(n)] for u in range(n)])
            s = [[value + scale for value in row] for row, scale in zip(t, scales)]
            weights = [a - b for a, b in zip(_cycle_sums(n, s), _cycle_sums(n, t))]
        else:
            rows = _indicator(random_digraph(n, seed=n).complement())
            apex = [[1] * (n + 1)] + [[1, *row] for row in rows]
            weights = _cycle_sums(n + 1, apex, roots=1)[1::2]
        terms = _partition_sum(n, weights)
        assert terms == packed_partition_sum(n, weights)
        assert list(terms) == sorted(terms, key=_partition_sort_key)

    @pytest.mark.parametrize("n", range(10, 15))
    def test_partition_sum_matches_inclusion_exclusion_up_to_the_cap(self, n):
        # an independent algorithm, above the n! oracles' 9 vertices and up
        # to the cycle-sum cap: the signed weights of redei_berge_powersum,
        # a tournament's odd blocks, and random signed ints
        t = [[-arc for arc in row] for row in _indicator(random_digraph(n, seed=n))]
        s = [[value + 1 for value in row] for row in t]
        here = _cycle_sums(n, _indicator(random_tournament(n, seed=n)))
        rng = random.Random(800 + n)
        for weights in (
            [a - b for a, b in zip(_cycle_sums(n, s), _cycle_sums(n, t))],
            [
                1 if S.bit_count() == 1 else 2 * here[S] if S.bit_count() % 2 else 0
                for S in range(1 << n)
            ],
            [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(1 << n)],
        ):
            assert _partition_sum(n, weights) == inclusion_exclusion_partition_sum(
                n, weights
            )

    def test_cycle_sums_match_cyclic_orderings_with_signed_weights(self):
        # every cyclic ordering of every subset, its minimal vertex first
        def brute_force(n, w, roots):
            sums = [0] * (1 << n)
            for subset in range(1, 1 << n):
                first, *rest = [v for v in range(n) if subset >> v & 1]
                if first >= roots:
                    continue
                for order in itertools.permutations(rest):
                    cycle = (first, *order)
                    sums[subset] += math.prod(
                        w[u][v] for u, v in zip(cycle, cycle[1:] + cycle[:1])
                    )
            return sums

        rng = random.Random(61)
        weights = (0, 0, 1, -1, 2, -3, 7)
        for n in range(8):
            for _ in range(3):
                w = [[rng.choice(weights) for _ in range(n)] for _ in range(n)]
                assert _cycle_sums(n, w) == brute_force(n, w, n)
                roots = rng.randint(0, n)
                assert _cycle_sums(n, w, roots=roots) == brute_force(n, w, roots)

    def test_cycle_sums_match_a_held_karp_table_at_n10_and_n12(self):
        # the power-sum, tournament and deformed weights, each checked
        # against a table written without the package
        def cleared(n, arc):
            # the rows of t or s over ArcWeights.random, cleared to ints
            weights = ArcWeights.random(n, seed=5)
            return _cleared([[arc(weights, u, v) for v in range(n)] for u in range(n)])

        def check(n, w, roots=None):
            roots = n if roots is None else roots
            assert _cycle_sums(n, w, roots) == weighted_cycle_sums(n, w, roots)

        n = 10
        d = random_digraph(n, seed=5)
        check(n, _indicator(d.complement()))
        check(n, [[-x for x in row] for row in _indicator(d)])
        check(n, _indicator(random_tournament(n, seed=5)))
        check(n, cleared(n, ArcWeights.t)[0])
        # the definition routes' apex matrix over the deformed s-rows, as
        # core._listing_monomials builds it: only the apex's pass runs
        s, scales = cleared(n, ArcWeights.s)
        check(n + 1, [[1] * (n + 1)] + [[c, *row] for c, row in zip(scales, s)], 1)
        n = 12
        check(n, _indicator(random_tournament(n, seed=5)))
        t = cleared(n, ArcWeights.t)[0]
        check(n, t)
        check(n, t, n // 2)

    def test_cycle_sums_of_complete_digraph(self):
        # (k-1)! cyclic orderings on every k-set; singletons read the diagonal
        n = 5
        sums = _cycle_sums(n, [[1 + (u == v) for v in range(n)] for u in range(n)])
        for subset in range(1, 1 << n):
            k = subset.bit_count()
            assert sums[subset] == (2 if k == 1 else math.factorial(k - 1))


class TestRedei:
    def test_transitive_tournament_has_one_path(self):
        report = verify_redei(transitive_tournament(5))
        assert report["hamps_mod2"] == 1
        assert report["pass"]

    def test_three_cycle_tournament(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        report = verify_redei(d)
        assert report == {"theorem": "redei", "n": 3, "hamps_mod2": 1, "pass": True}

    def test_zero_vertex_tournament(self):
        assert verify_redei(Digraph(0))["pass"]

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            verify_redei(THREE_LOOP)

    def test_exhaustive_through_n4(self):
        for n in range(5):
            for d in enumerate_tournaments(n):
                assert verify_redei(d)["pass"]

    def test_random_n7(self):
        for seed in range(10):
            assert verify_redei(random_tournament(7, seed=seed))["pass"]


class TestMod4:
    def test_transitive(self):
        report = verify_mod4(transitive_tournament(4))
        assert (report["lhs_mod4"], report["rhs_mod4"]) == (1, 1)
        assert report["odd_cycles"] == 0
        assert report["pass"]

    def test_three_cycle(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        report = verify_mod4(d)
        assert report["hamps"] == "3"
        assert report["odd_cycles"] == 1
        assert report["pass"]  # 3 = 1 + 2*1 mod 4

    def test_report_keys(self):
        report = verify_mod4(FIVE_TOURNAMENT)
        assert list(report) == [
            "theorem",
            "n",
            "hamps",
            "odd_cycles",
            "lhs_mod4",
            "rhs_mod4",
            "pass",
        ]
        assert json.loads(json.dumps(report)) == report

    def test_exhaustive_through_n4(self):
        for n in range(5):
            for d in enumerate_tournaments(n):
                assert verify_mod4(d)["pass"]

    def test_input_and_cycle_cap_checked_before_any_count(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("counted before the checks")

        monkeypatch.setattr(hamilton, "_count_dp", no_count)
        monkeypatch.setattr(hamilton, "_odd_cycles", no_count)
        monkeypatch.setattr(hamilton, "_path_table", no_count)
        refusal = "^13 vertices exceeds the odd-cycle cap of 12$"
        with pytest.raises(CapExceededError, match=refusal):
            verify_mod4(random_tournament(13, seed=5))
        with pytest.raises(ValueError, match="not a tournament"):
            verify_mod4(THREE_LOOP)

    def test_builds_only_its_own_report(self, monkeypatch):
        # the mod-4 report of hamps, with one tournament test and neither
        # Berge's nor Redei's report
        rng = random.Random(97)
        tournaments = [random_tournament(n, seed=rng.getrandbits(32)) for n in range(13)]
        expected = [hamilton._hamps_report(t)["mod4"] for t in tournaments]
        calls = []
        is_tournament = Digraph.is_tournament

        def counted(d):
            calls.append(d)
            return is_tournament(d)

        def no_report(*args):
            raise AssertionError("built a report that verify_mod4 drops")

        monkeypatch.setattr(Digraph, "is_tournament", counted)
        monkeypatch.setattr(hamilton, "_berge_report", no_report)
        monkeypatch.setattr(hamilton, "_redei_report", no_report)
        for t, report in zip(tournaments, expected):
            calls.clear()
            assert verify_mod4(t) == report
            assert calls == [t]


class TestBerge:
    def test_example(self):
        # hamps 0 against 4 paths in the complement
        report = verify_berge(THREE_LOOP)
        assert report == {
            "theorem": "berge",
            "n": 3,
            "hamps": "0",
            "lhs_mod2": 0,
            "rhs_mod2": 0,
            "pass": True,
        }

    def test_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert verify_berge(d)["pass"]

    def test_random_through_n7(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(0, 7)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            assert verify_berge(d)["pass"]

    def test_tournament_builds_no_parity_table(self, monkeypatch):
        # a tournament's complement is its converse with loops, so the
        # report reads the complement's parity from the exact count
        def no_table(g):
            raise AssertionError("parity table built for a tournament")

        monkeypatch.setattr(hamilton, "_path_parity", no_table)
        tournaments = [t for n in range(6) for t in enumerate_tournaments(n)]
        for t in tournaments + [random_tournament(14, seed=5)]:
            report = verify_berge(t)
            assert report["pass"] and report["rhs_mod2"] == 1


class TestParityCaps:
    @pytest.mark.parametrize(
        "verify, d",
        [
            (verify_redei, random_tournament(23, seed=5)),
            (verify_berge, random_tournament(23, seed=5)),
            (verify_berge, Digraph(23)),  # the parity route of Berge's report
        ],
        ids=["redei", "berge-tournament", "berge-digraph"],
    )
    def test_refused_before_either_engine(self, monkeypatch, verify, d):
        # each entry point checks the cap before an engine lays out a table
        def no_count(*args):
            raise AssertionError("counted before the cap check")

        monkeypatch.setattr(hamilton, "_count_dp", no_count)
        monkeypatch.setattr(hamilton, "_path_parity", no_count)
        monkeypatch.setattr(hamilton, "_cuts", no_count)
        refusal = "^23 vertices exceeds the path-count cap of 22$"
        with pytest.raises(CapExceededError, match=refusal):
            verify(d)


class TestSignedPermutationCount:
    def test_zeta_of_powersum_counts_complement_hamps_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                lhs = redei_berge_powersum(d).zeta()
                rhs = count_hamiltonian_paths(d.complement())
                assert lhs == rhs

    def test_signed_sum_over_split_permutations_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                signed = sum(
                    (-1) ** d_cycle_excess(d, sigma)
                    for sigma in mixed_cycle_permutations(d)
                )
                assert signed == count_hamiltonian_paths(d.complement())

    def test_signed_sum_random_n4_n5(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(4, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            signed = sum(
                (-1) ** d_cycle_excess(d, sigma)
                for sigma in mixed_cycle_permutations(d)
            )
            assert signed == count_hamiltonian_paths(d.complement())
