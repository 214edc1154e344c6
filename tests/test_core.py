import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIVE_TOURNAMENT, GESSEL, REMARK, THREE_LOOP
from redei_berge import (
    ArcWeights,
    CapExceededError,
    CycleClass,
    Digraph,
    FundamentalQSym,
    Permutation,
    PowerSumPolynomial,
    all_descent_sets,
    all_permutations,
    count_hamiltonian_paths,
    d_cycle_excess,
    d_cycle_permutations,
    deformed_by_definition,
    deformed_powersum,
    descent_set,
    enumerate_digraphs,
    enumerate_tournaments,
    in_doubled_odd_cone,
    is_risky,
    major_index,
    mixed_cycle_permutations,
    partition_of,
    random_digraph,
    random_tournament,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from redei_berge.kernel import DescentSet

P = PowerSumPolynomial


def L(n: int, *members: int) -> FundamentalQSym:
    return FundamentalQSym(n, {DescentSet.of(n, members): 1})


def naive_mixed(d):
    """Reference filter for the split-cycle permutation set."""
    comp = d.complement()
    return [
        sigma
        for sigma in all_permutations(d.n)
        if all(d.is_cycle(c) or comp.is_cycle(c) for c in sigma.cycles)
    ]


def naive_d_cycle(d):
    return [
        sigma
        for sigma in all_permutations(d.n)
        if all(d.is_cycle(c) for c in sigma.cycles if c.is_nontrivial)
    ]


class TestDescents:
    def test_example_listing(self):
        assert descent_set(THREE_LOOP, (2, 0, 1)).members == frozenset({2})
        assert major_index(THREE_LOOP, (2, 0, 1)) == 2

    def test_arcless(self):
        d = Digraph(4)
        for w in itertools.permutations(range(4)):
            assert descent_set(d, w).members == frozenset()
            assert major_index(d, w) == 0

    def test_recovers_classical_descents(self):
        d = Digraph(4, [(i, j) for i in range(4) for j in range(4) if i > j])
        for w in itertools.permutations(range(4)):
            classical = {i for i in range(1, 4) if w[i - 1] > w[i]}
            assert descent_set(d, w).members == frozenset(classical)

    def test_complete_with_loops(self):
        d = Digraph(5, [(u, v) for u in range(5) for v in range(5)])
        assert major_index(d, (3, 1, 4, 0, 2)) == 10  # 1 + 2 + 3 + 4

    def test_rejects_non_listing(self):
        with pytest.raises(ValueError):
            descent_set(THREE_LOOP, (0, 1))
        with pytest.raises(ValueError):
            descent_set(THREE_LOOP, (0, 1, 1))

    def test_descents_split_between_digraph_and_complement(self):
        # for every D and w the descent sets of D and its complement
        # partition the positions, so the major indices sum to n(n-1)/2
        for n in range(4):
            for d in enumerate_digraphs(n):
                comp = d.complement()
                for w in itertools.permutations(range(n)):
                    here = descent_set(d, w).members
                    there = descent_set(comp, w).members
                    assert here & there == frozenset()
                    assert here | there == frozenset(range(1, n))
                    assert major_index(d, w) + major_index(comp, w) == n * (n - 1) // 2
        n = 4
        rng = random.Random(5)
        for _ in range(200):
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            for w in itertools.permutations(range(n)):
                assert (
                    major_index(d, w) + major_index(d.complement(), w)
                    == n * (n - 1) // 2
                )


class TestDefinitionRoute:
    def test_descent_distribution_of_example(self):
        dist = redei_berge_by_definition(THREE_LOOP)
        assert dist.terms == {
            DescentSet.of(3): 4,
            DescentSet.of(3, {1}): 1,
            DescentSet.of(3, {2}): 1,
        }

    def test_expansion_matches_fundamental_combination(self):
        lhs = redei_berge_by_definition(THREE_LOOP)
        assert lhs == L(3).scale(4) + L(3, 1) + L(3, 2)
        assert lhs == redei_berge_powersum(THREE_LOOP).to_fundamental()

    def test_zero_vertices_gives_constant_one(self):
        f = redei_berge_by_definition(Digraph(0))
        assert f.coefficient(DescentSet.of(0)) == 1
        assert len(f.terms) == 1

    def test_one_vertex_gives_first_power_sum(self):
        assert redei_berge_by_definition(Digraph(1)) == P.p(1).to_fundamental()

    def test_cap(self):
        with pytest.raises(CapExceededError, match="listing-sum cap of 9"):
            redei_berge_by_definition(Digraph(10))


class TestPermutationSets:
    def test_example_mixed_set(self):
        expected = {
            Permutation.identity(3),
            Permutation.from_cycles(3, [(0, 2)]),
            Permutation.from_cycles(3, [(1, 2)]),
            Permutation.from_cycles(3, [(0, 2, 1)]),
        }
        assert set(mixed_cycle_permutations(THREE_LOOP)) == expected

    def test_example_d_cycle_set(self):
        assert d_cycle_permutations(THREE_LOOP) == [Permutation.identity(3)]

    def test_arcless_digraph(self):
        d = Digraph(3)
        assert len(mixed_cycle_permutations(d)) == 6
        assert d_cycle_permutations(d) == [Permutation.identity(3)]

    def test_identity_always_mixed_member(self):
        for n in range(5):
            for d in (Digraph(n), random_digraph(n, 0.7, seed=n)):
                assert Permutation.identity(n) in mixed_cycle_permutations(d)

    def test_against_naive_filters_exhaustive(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert mixed_cycle_permutations(d) == naive_mixed(d)
                assert d_cycle_permutations(d) == naive_d_cycle(d)


class TestCycleStatistics:
    def test_excess_on_complete_digraph(self):
        d = Digraph(6, [(u, v) for u in range(6) for v in range(6)])
        sigma = Permutation.from_cycles(6, [(0, 2), (1, 3, 4)])
        assert d_cycle_excess(d, sigma) == 3  # (2-1) + (3-1) + (1-1)

    def test_identity_excess(self):
        loop_free = Digraph(4, [(0, 1)])
        assert d_cycle_excess(loop_free, Permutation.identity(4)) == 0
        assert Permutation.identity(4).nontrivial_cycle_count == 0

    def test_single_full_cycle(self):
        d = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        sigma = Permutation.from_cycles(5, [tuple(range(5))])
        assert d_cycle_excess(d, sigma) == 4
        assert sigma.nontrivial_cycle_count == 1

    def test_excess_ignores_loops(self):
        rng = random.Random(23)
        for _ in range(50):
            d = random_digraph(5, 0.6, seed=rng.getrandbits(32))
            for images in itertools.islice(itertools.permutations(range(5)), 10):
                sigma = Permutation(images)
                assert d_cycle_excess(d, sigma) == d_cycle_excess(
                    d.without_loops(), sigma
                )


class TestPowerSumRoutes:
    def test_golden_values(self):
        assert redei_berge_powersum(THREE_LOOP) == P(
            {(1, 1, 1): 1, (2, 1): 2, (3,): 1}
        )
        assert redei_berge_powersum(GESSEL) == P({(1, 1, 1): 1, (2, 1): -1, (3,): 1})
        assert redei_berge_powersum(REMARK) == P(
            {(1, 1, 1, 1): 1, (2, 1, 1): 1, (3, 1): 1}
        )

    def test_matches_definition_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                f = redei_berge_powersum(d)
                assert f.to_fundamental() == redei_berge_by_definition(d)

    def test_matches_definition_beyond_the_profile_cache(self):
        # n = 6 is checked against the listing sum; at n = 8 the
        # zeta value is checked against the complete complement's n! paths
        d = random_digraph(6, 0.5, seed=99)
        assert redei_berge_powersum(d).to_fundamental() == redei_berge_by_definition(d)
        arcless = Digraph(8)
        f = redei_berge_powersum(arcless)
        assert f.zeta() == math.factorial(8)  # complement is complete
        assert all(c >= 0 for c in f.terms.values())

    def test_matches_definition_random_and_cross_validated(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(0, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            f = redei_berge_powersum(d)
            g = redei_berge_by_definition(d)
            assert f.to_fundamental() == g
            # independently: both zeta values count the complement's paths
            hamps = count_hamiltonian_paths(d.complement()).value
            assert f.zeta() == g.zeta() == hamps

    def test_listing_sum_is_symmetric_in_the_variables(self):
        # a quasisymmetric function is symmetric iff its M_alpha
        # coefficients depend only on the multiset of parts of alpha; the
        # M_T coefficient is the sum of the L_S coefficients over S inside T
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 4)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            f = redei_berge_by_definition(d)
            by_shape: dict[tuple[int, ...], set] = {}
            for cut in all_descent_sets(n):
                m_coeff = sum(
                    c for s, c in f.terms.items() if s.members <= cut.members
                )
                by_shape.setdefault(partition_of(cut.composition()), set()).add(m_coeff)
            assert all(len(values) == 1 for values in by_shape.values())

    def test_coefficients_are_integers(self):
        rng = random.Random(9)
        for _ in range(30):
            d = random_digraph(rng.randint(0, 5), 0.5, seed=rng.getrandbits(32))
            assert all(
                c.denominator == 1 for c in redei_berge_powersum(d).terms.values()
            )

    def test_tournament_route_trivial_sizes(self):
        assert redei_berge_tournament(Digraph(1)) == P({(1,): 1})
        assert redei_berge_tournament(Digraph(2, [(0, 1)])) == P({(1, 1): 1})

    def test_tournament_route_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            redei_berge_tournament(THREE_LOOP)

    def test_five_tournament_routes_agree_with_definition(self):
        f = redei_berge_powersum(FIVE_TOURNAMENT)
        assert redei_berge_tournament(FIVE_TOURNAMENT) == f
        assert redei_berge_two_cycle_free(FIVE_TOURNAMENT) == f
        assert f.to_fundamental() == redei_berge_by_definition(FIVE_TOURNAMENT)

    def test_all_routes_agree_on_small_tournaments(self):
        for n in range(5):
            for d in enumerate_tournaments(n):
                f = redei_berge_powersum(d)
                assert redei_berge_tournament(d) == f
                assert redei_berge_two_cycle_free(d) == f
                assert in_doubled_odd_cone(f)

    def test_two_cycle_free_route_rejects_two_cycles(self):
        with pytest.raises(ValueError):
            redei_berge_two_cycle_free(REMARK)

    def test_acyclic_path_digraph(self):
        d = Digraph(3, [(0, 1), (1, 2)])
        f = redei_berge_two_cycle_free(d)
        assert f == redei_berge_powersum(d)
        assert f.to_fundamental() == redei_berge_by_definition(d)
        assert all(c.denominator == 1 and c >= 0 for c in f.terms.values())

    def test_two_cycle_free_nonnegative_exhaustive(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                if not d.is_two_cycle_free():
                    continue
                f = redei_berge_two_cycle_free(d)
                assert f == redei_berge_powersum(d)
                assert all(c >= 0 for c in f.terms.values())

    def test_odd_cycle_digraphs_count_permutations_by_type(self):
        # when every cycle of the digraph has odd length, the coefficient of
        # each partition counts the split-cycle permutations of that type
        for n in range(4):
            for d in enumerate_digraphs(n):
                has_even_cycle = any(
                    d.is_cycle(CycleClass(verts))
                    for k in range(2, n + 1, 2)
                    for verts in itertools.permutations(range(n), k)
                )
                if has_even_cycle:
                    continue
                f = redei_berge_powersum(d)
                counts: dict[tuple[int, ...], int] = {}
                for sigma in mixed_cycle_permutations(d):
                    key = sigma.cycle_type
                    counts[key] = counts.get(key, 0) + 1
                assert f == P(counts)


class TestRiskyClasses:
    def test_odd_length_never_risky(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert not is_risky(d, CycleClass((0, 1, 2)))
        assert not is_risky(d, CycleClass((0,)))

    def test_two_cycle_with_both_arcs_is_risky(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert is_risky(d, CycleClass((0, 1)))

    def test_reversed_even_cycle_is_risky(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gamma = CycleClass((0, 3, 2, 1))  # reversal is the 4-cycle of d
        assert is_risky(d, gamma)
        assert not is_risky(Digraph(4), gamma)


class TestOmegaAndAntipode:
    def test_identities_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                here = redei_berge_powersum(d)
                there = redei_berge_powersum(d.complement())
                assert here.omega() == there
                assert here.antipode() == there.scale((-1) ** n)

    def test_identities_random(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(0, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            here = redei_berge_powersum(d)
            there = redei_berge_powersum(d.complement())
            assert here.omega() == there
            assert here.antipode() == there.scale((-1) ** n)


def n3_closed_form(w: ArcWeights) -> PowerSumPolynomial:
    """The displayed 3-vertex deformation, as a function of the weights."""
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    linear = sum((w.t(u, v) for u, v in pairs), Fraction(0))
    forward = w.t(0, 1) * w.t(1, 2) + w.t(1, 2) * w.t(2, 0) + w.t(2, 0) * w.t(0, 1)
    backward = w.t(0, 2) * w.t(2, 1) + w.t(2, 1) * w.t(1, 0) + w.t(1, 0) * w.t(0, 2)
    return P(
        {
            (1, 1, 1): 1,
            (2, 1): linear + 3,
            (3,): forward + backward + linear + 2,
        }
    )


class TestDeformation:
    def test_two_vertex_closed_form(self):
        for seed in range(5):
            w = ArcWeights.random(2, seed=seed)
            expected = P({(1, 1): 1, (2,): w.t(0, 1) + w.t(1, 0) + 1})
            assert deformed_powersum(w) == expected

    def test_three_vertex_closed_form(self):
        for seed in range(5):
            w = ArcWeights.random(3, seed=seed)
            assert deformed_powersum(w) == n3_closed_form(w)

    def test_theorem_route_matches_definition_route(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(0, 4)
            w = ArcWeights.random(n, seed=rng.getrandbits(32))
            assert deformed_powersum(w).to_fundamental() == deformed_by_definition(w)

    def test_zero_weights_give_factorial_times_complete_homogeneous(self):
        for n in range(5):
            w = ArcWeights(n)
            assert deformed_by_definition(w) == L(n).scale(math.factorial(n))

    def test_indicator_weights_reproduce_the_listing_sum(self):
        # t = -1 on arcs: a listing gives weight 1 to L_Des(w) alone
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(0, 4)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            w = ArcWeights.from_digraph(d)
            assert deformed_by_definition(w) == redei_berge_by_definition(d)

    def test_indicator_specialization_reproduces_powersum_form(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(0, 4)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            assert deformed_powersum(ArcWeights.from_digraph(d)) == (
                redei_berge_powersum(d)
            )

    def test_multilinear_in_each_weight(self):
        rng = random.Random(29)
        for _ in range(3):
            n = rng.randint(1, 3)
            w = ArcWeights.random(n, seed=rng.getrandbits(32))
            for u in range(n):
                for v in range(n):
                    base = w.t(u, v)
                    f0 = deformed_powersum(w)
                    f1 = deformed_powersum(w.updated(u, v, base + 1))
                    f2 = deformed_powersum(w.updated(u, v, base + 2))
                    assert f2 - f1.scale(2) + f0 == P.zero()

    def test_weights_json_round_trip(self):
        w = ArcWeights(2, {(0, 1): -1, (1, 0): Fraction(1, 2)})
        assert ArcWeights.from_json(w.to_json()) == w
        parsed = ArcWeights.from_json('{"n":2,"t":{"0,1":"-1"}}')
        assert parsed.t(0, 1) == -1
        assert parsed.t(1, 0) == 0  # omitted entries default to 0

    def test_weights_json_rejects_inexact_and_mistyped_fields(self):
        with pytest.raises(ValueError, match="'t' must be a JSON object"):
            ArcWeights.from_json('{"n": 2, "t": [1]}')
        with pytest.raises(ValueError, match="'n' must be an integer"):
            ArcWeights.from_json('{"n": true, "t": {}}')
        with pytest.raises(ValueError, match="rational string"):
            ArcWeights.from_json('{"n": 1, "t": {"0,0": 0.1}}')
        with pytest.raises(ValueError, match="rational string"):
            ArcWeights.from_json('{"n": 1, "t": {"0,0": false}}')
        assert ArcWeights.from_json('{"n": 1, "t": {"0,0": 3}}').t(0, 0) == 3

    def test_weights_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            ArcWeights.from_json('{"t": {}}')
        with pytest.raises(ValueError):
            ArcWeights.from_json('{"n": 2, "t": {"0": "1"}}')

    def test_weights_json_refuses_a_pair_named_twice(self):
        with pytest.raises(ValueError, match="'0,1' and '0,01' both name"):
            ArcWeights.from_json('{"n": 2, "t": {"0,1": "1", "0,01": "2"}}')
        with pytest.raises(ValueError, match="'0,1' appears twice"):
            ArcWeights.from_json('{"n": 2, "t": {"0,1": "1", "0,1": "2"}}')

    @pytest.mark.parametrize(
        "weight",
        [
            '"1e400"',  # an exponent: refused before any digits are built
            '"1.5"',
            "1.5",
            '" 1"',
            '"1/-2"',
            '"\u0661"',  # a non-ASCII digit
        ],
    )
    def test_weights_json_accepts_only_exact_rational_forms(self, weight):
        with pytest.raises(ValueError, match="must be an integer or a rational string"):
            ArcWeights.from_json('{"n": 2, "t": {"0,1": %s}}' % weight)

    @settings(max_examples=60)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.fractions(max_denominator=50),
                    max_size=n * n,
                )
                if n
                else st.just({}),
            )
        )
    )
    def test_weights_json_round_trip_property(self, case):
        w = ArcWeights(*case)
        assert ArcWeights.from_json(w.to_json()) == w


class TestCapsBeforeWork:
    def test_power_sum_routes_refuse_before_building_tables(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("cycle-sum table built above the cap")

        monkeypatch.setattr("redei_berge.core._cycle_sums", no_tables)
        for route, arg in (
            (redei_berge_powersum, random_digraph(10, 0.5, seed=1)),
            (redei_berge_tournament, random_tournament(10, seed=2)),
            (redei_berge_two_cycle_free, Digraph(10, [(0, 1), (1, 2)])),
            (deformed_powersum, ArcWeights.random(10, seed=3)),
        ):
            with pytest.raises(CapExceededError, match="power-sum cap of 9"):
                route(arg)
