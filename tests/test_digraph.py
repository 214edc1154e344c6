import argparse
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIVE_TOURNAMENT,
    REMARK,
    THREE_LOOP,
    drawn_digraph,
    drawn_tournament,
)
from redei_berge import (
    CapExceededError,
    Digraph,
    DigraphFormatError,
    enumerate_digraphs,
    enumerate_tournaments,
    format_digraph,
    parse_digraph,
    random_digraph,
    random_tournament,
)
from redei_berge import cli, digraph
from redei_berge.oracles import is_cycle, level_subdigraph

# digraphs on at most 8 vertices, loops included
digraphs = st.integers(0, 8).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    ).map(lambda arcs: Digraph(n, arcs))
)


class TestConstruction:
    @pytest.mark.parametrize(
        "arc, entry", [((0.0, 1), "0.0"), ((0, 1.0), "1.0"), ((True, 1), "True")]
    )
    def test_rejects_non_integer_endpoint(self, arc, entry):
        with pytest.raises(ValueError, match=f"non-integer endpoint {entry}$"):
            Digraph(2, [arc])

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(ValueError, match=f"vertex count {n!r} is not an integer"):
            Digraph(n, [(0, 0)])

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            Digraph(-1)

    def test_rejects_an_arc_out_of_range(self):
        with pytest.raises(ValueError, match=r"^arc \(0, 2\) outside 0\.\.1$"):
            Digraph(2, [(0, 2)])

    @pytest.mark.parametrize(
        "generate",
        [
            random_digraph,
            random_tournament,
            lambda n: next(enumerate_digraphs(n)),
            lambda n: next(enumerate_tournaments(n)),
        ],
        ids=[
            "random_digraph",
            "random_tournament",
            "enumerate_digraphs",
            "enumerate_tournaments",
        ],
    )
    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_generators_reject_non_integer_vertex_count(self, generate, n):
        # range() would raise a TypeError on the floats and accept True
        with pytest.raises(ValueError, match=f"^vertex count {n!r} is not an integer$"):
            generate(n)


class TestComplement:
    def test_three_vertex_example(self):
        comp = THREE_LOOP.complement()
        assert set(comp.arcs()) == {
            (0, 0),
            (0, 2),
            (1, 0),
            (1, 2),
            (2, 0),
            (2, 1),
        }

    def test_complete_becomes_arcless(self):
        complete = Digraph(3, [(u, v) for u in range(3) for v in range(3)])
        assert complete.complement() == Digraph(3)

    def test_empty(self):
        assert Digraph(0).complement() == Digraph(0)

    def test_involution_random_sample(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(0, 5)
            d = random_digraph(n, rng.random(), seed=rng.getrandbits(32))
            assert d.complement().complement() == d


def transpose(d: Digraph) -> tuple[int, ...]:
    """The in-neighbour masks of d, loops dropped, read from ``has_arc``."""
    return tuple(
        sum(1 << u for u in range(d.n) if u != v and d.has_arc(u, v))
        for v in range(d.n)
    )


class TestInNeighbourMasks:
    def test_every_constructor_builds_the_transpose(self):
        # every digraph on at most 3 vertices, then seeded random digraphs
        # and tournaments through 14 vertices, each built three ways and
        # complemented, which flips ins without the loops
        rng = random.Random(137)
        digraphs = [d for n in range(4) for d in enumerate_digraphs(n)]
        for n in range(15):
            for p in (0.2, 0.5, 0.8):
                digraphs.append(random_digraph(n, p, seed=rng.getrandbits(32)))
            digraphs.append(random_tournament(n, seed=rng.getrandbits(32)))
        for d in digraphs:
            for g in (
                d,
                Digraph(d.n, d.arcs()),
                parse_digraph(format_digraph(d)),
            ):
                assert g.ins == transpose(d)
                assert g.complement().ins == transpose(g.complement())
                assert g.complement().complement().ins == g.ins

    def test_loops_stay_out_of_ins(self):
        looped = Digraph(2, [(0, 0), (0, 1), (1, 1)])
        assert looped.ins == (0, 1)
        assert looped.complement().ins == (2, 0)


class TestPredicates:
    def test_five_tournament(self):
        assert FIVE_TOURNAMENT.is_tournament()

    def test_example_digraphs_are_not_tournaments(self):
        assert not THREE_LOOP.is_tournament()
        assert not THREE_LOOP.complement().is_tournament()

    def test_tiny_tournaments(self):
        assert Digraph(0).is_tournament()
        assert Digraph(1).is_tournament()
        assert not Digraph(1, [(0, 0)]).is_tournament()

    def test_two_cycle_free(self):
        assert not REMARK.is_two_cycle_free()
        assert Digraph(3).is_two_cycle_free()
        assert Digraph(2, [(0, 0), (1, 1), (0, 1)]).is_two_cycle_free()

    def test_tournament_implies_two_cycle_free_exhaustive(self):
        for n in range(5):
            for d in enumerate_digraphs(n):
                if d.is_tournament():
                    assert d.is_two_cycle_free()
                    assert all(not d.has_arc(v, v) for v in range(n))

    def test_mask_predicates_match_pairwise_loops(self):
        # every digraph on at most 3 vertices, then random digraphs, random
        # tournaments and two-cycle-free digraphs, and tournaments with one
        # pair doubled, one pair emptied or one loop added, through n = 14
        def is_tournament(d):
            pairs = itertools.combinations(range(d.n), 2)
            return not any(d.has_arc(u, u) for u in range(d.n)) and all(
                d.has_arc(u, v) != d.has_arc(v, u) for u, v in pairs
            )

        def is_two_cycle_free(d):
            pairs = itertools.combinations(range(d.n), 2)
            return not any(d.has_arc(u, v) and d.has_arc(v, u) for u, v in pairs)

        instances = [d for n in range(4) for d in enumerate_digraphs(n)]
        rng = random.Random(29)
        for n in range(15):
            for kind in ("digraph", "tournament", "two-cycle-free"):
                instances.append(Digraph(n, filter(None, digraph._random(rng, kind, n))))
            t = random_tournament(n, seed=rng.getrandbits(32))
            arcs = list(t.arcs())
            if arcs:
                u, v = rng.choice(arcs)
                instances += [Digraph(n, arcs + [(v, u)]), Digraph(n, set(arcs) - {(u, v)})]
            if n:
                instances.append(Digraph(n, arcs + [(rng.randrange(n),) * 2]))
        verdicts = set()
        for d in instances:
            verdict = (d.is_tournament(), d.is_two_cycle_free())
            assert verdict == (is_tournament(d), is_two_cycle_free(d)), d
            verdicts.add(verdict)
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_cycles_of_example_digraph(self):
        cycles = {
            verts
            for k in range(1, 4)
            for verts in itertools.permutations(range(3), k)
            if verts[0] == min(verts) and is_cycle(THREE_LOOP, verts)
        }
        assert cycles == {(1,), (2,)}

    def test_cycles_of_example_complement(self):
        comp = THREE_LOOP.complement()
        cycles = {
            verts
            for k in range(1, 4)
            for verts in itertools.permutations(range(3), k)
            if verts[0] == min(verts) and is_cycle(comp, verts)
        }
        assert cycles == {(0,), (0, 2), (1, 2), (0, 2, 1)}

    def test_tournament_cycle_and_reversal_never_both(self):
        for n in range(5):
            for d in enumerate_tournaments(n):
                for k in range(2, n + 1):
                    for verts in itertools.permutations(range(n), k):
                        assert not (is_cycle(d, verts) and is_cycle(d, verts[::-1]))


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_tournaments(3)) == 8
        assert sum(1 for _ in enumerate_digraphs(2)) == 16
        assert sum(1 for _ in enumerate_tournaments(5)) == 1024
        loopless = [d for d in enumerate_digraphs(2) if not d.has_arc(0, 0)]
        assert sum(1 for d in loopless if not d.has_arc(1, 1)) == 4

    def test_duplicate_free(self):
        seen = set(enumerate_digraphs(2))
        assert len(seen) == 16
        assert len(set(enumerate_tournaments(4))) == 64

    def test_all_enumerated_tournaments_qualify(self):
        assert all(d.is_tournament() for d in enumerate_tournaments(4))

    def test_binary_counting_order(self):
        first, second = itertools.islice(enumerate_digraphs(2), 2)
        assert first == Digraph(2)
        assert set(second.arcs()) == {(0, 0)}

    def test_cap(self):
        # the cap of 2^24 instances refuses before the first one is built
        with pytest.raises(CapExceededError, match="cap of 16777216"):
            next(enumerate_digraphs(5))  # 2^25 instances
        with pytest.raises(CapExceededError):
            list(enumerate_digraphs(6))  # 2^36 instances
        with pytest.raises(CapExceededError, match="cap of 16777216"):
            next(enumerate_tournaments(8))  # 2^28 instances
        assert sum(1 for _ in itertools.islice(enumerate_tournaments(7), 3)) == 3

    @pytest.mark.parametrize(
        "generate, n, message",
        [
            (enumerate_tournaments, 60, "2^1770 tournaments on 60 vertices"),
            (enumerate_digraphs, 60, "2^3600 digraphs on 60 vertices"),
            (enumerate_tournaments, 3000, "2^4498500 tournaments on 3000 vertices"),
            (enumerate_digraphs, 3000, "2^9000000 digraphs on 3000 vertices"),
        ],
    )
    def test_long_streams_refused_by_their_exponent(self, generate, n, message):
        # 2^slots is never built: at 3000 vertices it has millions of bits
        with pytest.raises(
            CapExceededError,
            match=f"^{re.escape(message)} exceeds the enumeration cap of 16777216$",
        ):
            next(generate(n))

    @pytest.mark.parametrize(
        "n, count",
        [
            (6, "918330048"),
            (7, "1338925209984"),
            (8, "5856458868470016"),  # below 2^64, so written out
            (9, "2^9 * 3^36"),
            (3000, "2^3000 * 3^4498500"),
        ],
    )
    def test_two_cycle_free_stream_refused_by_its_own_count(self, n, count):
        # the refusal comes before the stream or its count is built
        message = f"{count} two-cycle-free digraphs on {n} vertices"
        with pytest.raises(
            CapExceededError,
            match=f"^{re.escape(message)} exceeds the enumeration cap of 16777216$",
        ):
            digraph._exhaustive("two-cycle-free", n)


def digraphs_by_counting(n):
    """The docstring's order: digraph i holds the j-th row-major position
    iff bit j of i is set."""
    positions = [(u, v) for u in range(n) for v in range(n)]
    for i in range(1 << len(positions)):
        yield Digraph(n, (a for j, a in enumerate(positions) if i >> j & 1))


def tournaments_by_counting(n):
    """The docstring's order: in tournament i the j-th pair u < v is
    oriented u -> v iff bit j of i is set."""
    pairs = list(itertools.combinations(range(n), 2))
    for i in range(1 << len(pairs)):
        yield Digraph(
            n, ((u, v) if i >> j & 1 else (v, u) for j, (u, v) in enumerate(pairs))
        )


STREAMS = {
    "digraph": (range(5), lambda d: True),
    "tournament": (range(7), Digraph.is_tournament),
    "two-cycle-free": (range(5), Digraph.is_two_cycle_free),
}


class TestExhaustiveStreams:
    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind, (sizes, _) in STREAMS.items() for n in sizes]
    )
    def test_count_is_the_number_of_distinct_instances_of_the_kind(self, kind, n):
        count, stream = digraph._exhaustive(kind, n)
        instances = [Digraph(n, filter(None, c)) for c in stream]
        assert len(instances) == len(set(instances)) == count
        assert all(d.n == n and STREAMS[kind][1](d) for d in instances)

    @pytest.mark.parametrize("n", range(4))
    def test_two_cycle_free_is_the_filtered_digraph_stream(self, n):
        filtered = {d for d in enumerate_digraphs(n) if d.is_two_cycle_free()}
        stream = digraph._exhaustive("two-cycle-free", n)[1]
        assert {Digraph(n, filter(None, c)) for c in stream} == filtered

    @pytest.mark.parametrize("n", range(6))
    def test_binary_counting_order(self, n):
        if n <= 3:
            assert list(enumerate_digraphs(n)) == list(digraphs_by_counting(n))
        assert list(enumerate_tournaments(n)) == list(tournaments_by_counting(n))


class TestRandomGeneration:
    def test_deterministic_per_seed(self):
        assert random_digraph(6, 0.5, seed=42) == random_digraph(6, 0.5, seed=42)
        assert random_tournament(7, seed=3) == random_tournament(7, seed=3)

    def test_random_tournament_is_tournament(self):
        for seed in range(20):
            assert random_tournament(6, seed=seed).is_tournament()

    @pytest.mark.parametrize("n", range(13))
    def test_draws_match_the_arc_by_arc_oracles(self, n):
        for seed in range(8):
            assert random_tournament(n, seed=seed) == drawn_tournament(
                random.Random(seed), n
            )
            for p in (0, 0.2, 0.5, 0.8, 1):
                expected = drawn_digraph(random.Random(seed), n, p)
                assert random_digraph(n, p, seed=seed) == expected

    def test_probability_extremes(self):
        assert random_digraph(4, 0.0, seed=1) == Digraph(4)
        assert random_digraph(4, 1.0, seed=1) == Digraph(4).complement()
        with pytest.raises(ValueError):
            random_digraph(3, 1.5, seed=0)


class TestTextFormat:
    def test_parse_example(self):
        assert parse_digraph("3\n0 1\n1 1\n2 2\n") == THREE_LOOP

    def test_parse_empty_digraph(self):
        assert parse_digraph("0\n") == Digraph(0)

    def test_round_trip(self):
        text = "2\n0 1\n"
        assert format_digraph(parse_digraph(text)) == text

    def test_round_trip_canonical_on_examples(self):
        for d in (THREE_LOOP, REMARK, FIVE_TOURNAMENT):
            assert parse_digraph(format_digraph(d)) == d

    def test_comments_and_blank_lines(self):
        text = "# a digraph\n\n3  # header\n0 1\n # comment\n1 1\n2 2\n"
        assert parse_digraph(text) == THREE_LOOP

    def test_malformed_line(self):
        with pytest.raises(DigraphFormatError) as err:
            parse_digraph("2\n0 1 2\n")
        assert err.value.line == 2

    def test_non_integer(self):
        with pytest.raises(DigraphFormatError):
            parse_digraph("2\n0 x\n")

    def test_out_of_range(self):
        with pytest.raises(DigraphFormatError) as err:
            parse_digraph("2\n0 2\n")
        assert err.value.line == 2

    def test_duplicate_arc(self):
        with pytest.raises(DigraphFormatError) as err:
            parse_digraph("3\n0 1\n0 1\n")
        assert err.value.line == 3

    def test_duplicate_header(self):
        with pytest.raises(DigraphFormatError) as err:
            parse_digraph("3\n0 1\n3\n")
        assert err.value.line == 3

    def test_missing_header(self):
        with pytest.raises(DigraphFormatError):
            parse_digraph("# only comments\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2\n1_0 1\n", 2),  # int() would read 10
            ("3\n\u0662 1\n", 2),  # a non-ASCII digit, which int() reads as 2
            ("3\n+1 0\n", 2),
            ("\u0663\n", 1),
            ("-1\n", 1),
            ("3_0\n", 1),
        ],
    )
    def test_numbers_are_ascii_digits(self, text, line):
        with pytest.raises(DigraphFormatError, match="nonnegative integer") as err:
            parse_digraph(text)
        assert err.value.line == line

    @pytest.mark.parametrize("header", ["23", "1000000"])
    def test_vertex_count_above_the_cap_refused_before_any_table(
        self, monkeypatch, header
    ):
        def no_table(*args):
            raise AssertionError("digraph built before the cap check")

        monkeypatch.setattr(digraph, "Digraph", no_table)
        text = f"# oversized\n{header}\n0 1\n"
        message = f"vertex count {header} exceeds the cap of 22"
        with pytest.raises(DigraphFormatError, match=message) as err:
            parse_digraph(text)
        assert err.value.line == 2

    def test_vertex_count_at_the_cap_is_accepted(self):
        assert parse_digraph("22\n0 21\n") == Digraph(22, [(0, 21)])

    @settings(max_examples=80)
    @given(digraphs)
    def test_round_trip_property(self, d):
        assert parse_digraph(format_digraph(d)) == d

    @settings(max_examples=80)
    @given(digraphs)
    def test_inline_arcs_round_trip_property(self, d):
        spec = ";".join(format_digraph(d).splitlines())
        assert cli._read_digraph(argparse.Namespace(arcs=spec, input=None)) == d


class TestInduced:
    """The induced subdigraph that the level decomposition takes of each
    level."""

    def test_relabels_in_sorted_order(self):
        sub = level_subdigraph(FIVE_TOURNAMENT, [2, 1, 2, 1, 1], 1)
        # kept arcs: (3,1) -> (1,0), (3,4) -> (1,2), (1,4) -> (0,2)
        assert set(sub.arcs()) == {(1, 0), (1, 2), (0, 2)}

    def test_keeps_loops(self):
        sub = level_subdigraph(THREE_LOOP, [2, 1, 1], 1)
        assert set(sub.arcs()) == {(0, 0), (1, 1)}
