import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIVE_TOURNAMENT,
    GESSEL,
    REMARK,
    THREE_LOOP,
    major_index_sum,
    principal_specialisation,
    weighted_path_sum,
)
from redei_berge import (
    ArcWeights,
    CapExceededError,
    Digraph,
    FundamentalQSym,
    PowerSumPolynomial,
    count_hamiltonian_paths,
    deformed_by_definition,
    deformed_powersum,
    descent_set,
    enumerate_digraphs,
    enumerate_tournaments,
    in_doubled_odd_cone,
    random_digraph,
    random_tournament,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from redei_berge import core
from redei_berge.oracles import (
    cycle_type,
    cycles_of,
    d_cycle_excess,
    d_cycle_permutations,
    deformed_by_listings,
    is_cycle,
    is_risky,
    level_subdigraph,
    mixed_cycle_permutations,
    redei_berge_by_listings,
)
from redei_berge.polynomials import DescentSet, _cut_shapes, partition_of

P = PowerSumPolynomial
ENGINE_REFUSAL = "^15 vertices exceeds the cycle-sum cap of 14$"


def row_prime_weights(n, seed):
    """Mixed-sign weights whose row u has the u-th prime above 10^6 as its
    one denominator: the rows' lcms are distinct and their product is large."""
    rng = random.Random(seed)
    candidates = range(10**6, 10**6 + 200)
    primes = [p for p in candidates if all(p % q for q in range(2, 1001))]
    return ArcWeights(
        n,
        {
            (u, v): Fraction(rng.randint(-primes[u], primes[u]), primes[u])
            for u in range(n)
            for v in range(n)
        },
    )


def naive_mixed(d):
    """Reference filter for the split-cycle permutation set."""
    comp = d.complement()
    return [
        sigma
        for sigma in itertools.permutations(range(d.n))
        if all(is_cycle(d, c) or is_cycle(comp, c) for c in cycles_of(sigma))
    ]


def naive_d_cycle(d):
    return [
        sigma
        for sigma in itertools.permutations(range(d.n))
        if all(is_cycle(d, c) for c in cycles_of(sigma) if len(c) > 1)
    ]


class TestDescents:
    def test_example_listing(self):
        assert descent_set(THREE_LOOP, (2, 0, 1)).members == frozenset({2})
        assert list(descent_set(THREE_LOOP, (2, 0, 1))) == [2]

    def test_arcless(self):
        d = Digraph(4)
        for w in itertools.permutations(range(4)):
            assert descent_set(d, w).members == frozenset()
            assert list(descent_set(d, w)) == []

    def test_recovers_classical_descents(self):
        d = Digraph(4, [(i, j) for i in range(4) for j in range(4) if i > j])
        for w in itertools.permutations(range(4)):
            classical = {i for i in range(1, 4) if w[i - 1] > w[i]}
            assert descent_set(d, w).members == frozenset(classical)

    def test_complete_with_loops(self):
        d = Digraph(5, [(u, v) for u in range(5) for v in range(5)])
        assert list(descent_set(d, (3, 1, 4, 0, 2))) == [1, 2, 3, 4]

    def test_rejects_non_listing(self):
        with pytest.raises(ValueError):
            descent_set(THREE_LOOP, (0, 1))
        with pytest.raises(ValueError):
            descent_set(THREE_LOOP, (0, 1, 1))

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_rejects_non_integer_entry(self, entry):
        # (0, 1.0, 2) and (0, True, 2) sort equal to (0, 1, 2)
        with pytest.raises(ValueError, match=f"listing entry {entry!r} is not an"):
            descent_set(THREE_LOOP, (0, entry, 2))

    def test_descents_split_between_digraph_and_complement(self):
        # for every D and w the descent sets of D and its complement
        # partition the positions
        for n in range(4):
            for d in enumerate_digraphs(n):
                comp = d.complement()
                for w in itertools.permutations(range(n)):
                    here = descent_set(d, w).members
                    there = descent_set(comp, w).members
                    assert here & there == frozenset()
                    assert here | there == frozenset(range(1, n))
        n = 4
        rng = random.Random(5)
        for _ in range(200):
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            for w in itertools.permutations(range(n)):
                here = descent_set(d, w).members
                there = descent_set(d.complement(), w).members
                assert here & there == frozenset()
                assert here | there == frozenset(range(1, n))


class TestDefinitionRoute:
    def test_descent_distribution_of_example(self):
        dist = redei_berge_by_definition(THREE_LOOP)
        assert dist.terms == {
            DescentSet(3, ()): 4,
            DescentSet(3, {1}): 1,
            DescentSet(3, {2}): 1,
        }

    def test_expansion_matches_fundamental_combination(self):
        lhs = redei_berge_by_definition(THREE_LOOP)
        assert lhs == FundamentalQSym(
            3, {DescentSet(3, ()): 4, DescentSet(3, {1}): 1, DescentSet(3, {2}): 1}
        )
        assert lhs == redei_berge_powersum(THREE_LOOP).to_fundamental()

    def test_zero_vertices_gives_constant_one(self):
        f = redei_berge_by_definition(Digraph(0))
        assert f.coefficient(DescentSet(0, ())) == 1
        assert len(f.terms) == 1

    def test_one_vertex_gives_first_power_sum(self):
        assert redei_berge_by_definition(Digraph(1)) == P({(1,): 1}).to_fundamental()

    def test_cap(self):
        with pytest.raises(CapExceededError, match=ENGINE_REFUSAL):
            redei_berge_by_definition(Digraph(15))


class TestPermutationSets:
    def test_example_mixed_set(self):
        expected = {
            (0, 1, 2),
            (2, 1, 0),  # the 2-cycle (0 2)
            (0, 2, 1),  # the 2-cycle (1 2)
            (2, 0, 1),  # the 3-cycle (0 2 1)
        }
        assert set(mixed_cycle_permutations(THREE_LOOP)) == expected

    def test_example_d_cycle_set(self):
        assert d_cycle_permutations(THREE_LOOP) == [(0, 1, 2)]

    def test_arcless_digraph(self):
        d = Digraph(3)
        assert len(mixed_cycle_permutations(d)) == 6
        assert d_cycle_permutations(d) == [(0, 1, 2)]

    def test_identity_always_mixed_member(self):
        for n in range(5):
            for d in (Digraph(n), random_digraph(n, 0.7, seed=n)):
                assert tuple(range(n)) in mixed_cycle_permutations(d)

    def test_against_naive_filters_exhaustive(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert mixed_cycle_permutations(d) == naive_mixed(d)
                assert d_cycle_permutations(d) == naive_d_cycle(d)


class TestCycleStatistics:
    def test_excess_on_complete_digraph(self):
        d = Digraph(6, [(u, v) for u in range(6) for v in range(6)])
        sigma = (2, 3, 0, 4, 1, 5)  # cycles (0 2), (1 3 4), (5)
        assert d_cycle_excess(d, sigma) == 3  # (2-1) + (3-1) + (1-1)

    def test_identity_excess(self):
        loop_free = Digraph(4, [(0, 1)])
        assert d_cycle_excess(loop_free, (0, 1, 2, 3)) == 0

    def test_single_full_cycle(self):
        d = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        sigma = (1, 2, 3, 4, 0)  # the 5-cycle (0 1 2 3 4)
        assert d_cycle_excess(d, sigma) == 4

    def test_excess_ignores_loops(self):
        rng = random.Random(23)
        for _ in range(50):
            d = random_digraph(5, 0.6, seed=rng.getrandbits(32))
            loop_free = Digraph(5, [(u, v) for u, v in d.arcs() if u != v])
            for sigma in itertools.islice(itertools.permutations(range(5)), 10):
                assert d_cycle_excess(d, sigma) == d_cycle_excess(loop_free, sigma)


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
            assert f.to_fundamental() == g == redei_berge_by_listings(d)
            # independently: both zeta values count the complement's paths
            hamps = count_hamiltonian_paths(d.complement())
            assert f.zeta() == g.zeta() == hamps

    def test_listing_sum_is_symmetric_in_the_variables(self):
        # a quasisymmetric function is symmetric iff its M_alpha
        # coefficients depend only on the multiset of parts of alpha; the
        # M_T coefficient is the sum of the L_S coefficients over S inside T
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 4)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            f = redei_berge_by_listings(d)
            by_shape: dict[tuple[int, ...], set] = {}
            for cut in _cut_shapes(n)[0]:
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

    @pytest.mark.parametrize(
        "terms, member",
        [
            ({(1, 1, 1): 3, (3,): 2, (5, 3, 1): 4}, True),
            ({(1, 1): 1, (2,): 2}, False),  # an even part
            ({(1,): Fraction(1, 2)}, False),  # not an integer
            ({(1, 1): -1}, False),  # negative
            ({(3, 3, 1): 2}, False),  # two parts above 1 ask for 4 | c
        ],
    )
    def test_doubled_odd_cone_membership(self, terms, member):
        assert in_doubled_odd_cone(P(terms)) is member

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
                    is_cycle(d, verts)
                    for k in range(2, n + 1, 2)
                    for verts in itertools.permutations(range(n), k)
                )
                if has_even_cycle:
                    continue
                f = redei_berge_powersum(d)
                counts: dict[tuple[int, ...], int] = {}
                for sigma in mixed_cycle_permutations(d):
                    key = cycle_type(sigma)
                    counts[key] = counts.get(key, 0) + 1
                assert f == P(counts)


class TestRiskyClasses:
    def test_odd_length_never_risky(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert not is_risky(d, (0, 1, 2))
        assert not is_risky(d, (0,))

    def test_two_cycle_with_both_arcs_is_risky(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert is_risky(d, (0, 1))

    def test_reversed_even_cycle_is_risky(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gamma = (0, 3, 2, 1)  # reversal is the 4-cycle of d
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
            g = deformed_by_definition(w)
            assert deformed_powersum(w).to_fundamental() == g == deformed_by_listings(w)

    def test_zero_weights_give_factorial_times_complete_homogeneous(self):
        for n in range(5):
            w = ArcWeights(n)
            expected = FundamentalQSym(n, {DescentSet(n, ()): math.factorial(n)})
            assert deformed_by_definition(w) == expected

    def test_indicator_weights_reproduce_the_listing_sum(self):
        # t = -1 on arcs: a listing gives weight 1 to L_Des(w) alone
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(0, 4)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            w = ArcWeights.from_digraph(d)
            assert deformed_by_definition(w) == redei_berge_by_definition(d)
            assert deformed_by_listings(w) == redei_berge_by_listings(d)

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
                    assert f2 - f1.scale(2) + f0 == P()

    @pytest.mark.parametrize(
        "n, weights, bad",
        [
            (2.5, {}, "vertex count 2.5 is not an integer"),
            (True, {}, "vertex count True is not an integer"),
            (2, {(0.0, 1): 1}, "non-integer entry 0.0"),
            (2, {(0, True): 1}, "non-integer entry True"),
        ],
    )
    def test_weights_reject_non_integer_count_and_pairs(self, n, weights, bad):
        with pytest.raises(ValueError, match=bad):
            ArcWeights(n, weights)

    def test_weights_reject_bool_values(self):
        with pytest.raises(TypeError, match="coefficient must be exact"):
            ArcWeights(2, {(0, 1): True})
        with pytest.raises(TypeError, match="coefficient must be exact"):
            ArcWeights(2).updated(0, 1, False)

    def test_weights_json_round_trip(self):
        w = ArcWeights(2, {(0, 1): -1, (1, 0): Fraction(1, 2)})
        text = json.dumps({"n": 2, "t": {"0,1": "-1", "1,0": "1/2"}})
        assert ArcWeights.from_json(text) == w
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
        with pytest.raises(ValueError, match="unknown key 'T'"):
            ArcWeights.from_json('{"n": 2, "T": {"0,1": "-1"}}')
        with pytest.raises(ValueError, match="unknown key 's'"):
            ArcWeights.from_json('{"n": 2, "t": {}, "s": {"0,1": "0"}}')
        with pytest.raises(ValueError, match="nested too deeply"):
            ArcWeights.from_json("[" * 200000)

    def test_weights_json_refuses_a_pair_named_twice(self):
        with pytest.raises(ValueError, match="'0,1' and '0,01' both name"):
            ArcWeights.from_json('{"n": 2, "t": {"0,1": "1", "0,01": "2"}}')
        with pytest.raises(ValueError, match="'0,1' appears twice"):
            ArcWeights.from_json('{"n": 2, "t": {"0,1": "1", "0,1": "2"}}')

    @pytest.mark.parametrize(
        "key",
        [
            " 0 ,1_0",  # int() would read the pair (0, 10)
            "0,\u0662",  # a non-ASCII digit, which int() reads as 2
            "-0,1",
            "0,1,",
            "0,1,1",
            "",
            ",",
            "0;1",
        ],
    )
    def test_weights_json_pair_keys_are_two_ascii_digit_fields(self, key):
        with pytest.raises(ValueError, match="bad pair key"):
            ArcWeights.from_json('{"n": 3, "t": {"%s": "1"}}' % key)

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
        n, weights = case
        table = {f"{u},{v}": str(value) for (u, v), value in weights.items()}
        text = json.dumps({"n": n, "t": table})
        assert ArcWeights.from_json(text) == ArcWeights(*case)


class TestIntegerEngine:
    """The cycle-sum engine sees only plain ``int``s, whatever the route;
    rationals are cleared before it and divided out after it."""

    @pytest.mark.parametrize(
        "route, arg",
        [
            (redei_berge_powersum, random_digraph(6, 0.5, seed=41)),
            (redei_berge_tournament, random_tournament(6, seed=42)),
            (redei_berge_by_definition, random_digraph(6, 0.5, seed=43)),
            (deformed_powersum, row_prime_weights(6, 44)),
            (deformed_by_definition, row_prime_weights(6, 45)),
            (deformed_powersum, ArcWeights.random(5, seed=46)),
            (deformed_by_definition, ArcWeights.random(5, seed=47)),
        ],
    )
    def test_engine_receives_and_returns_ints(self, monkeypatch, route, arg):
        calls = []

        def all_ints(values, what):
            bad = [x for x in values if type(x) is not int]
            assert not bad, f"{what} holds {bad[0]!r}"

        def cycle_sums(n, w, *args, **kwargs):
            all_ints([x for row in w for x in row], "a cycle-sum weight row")
            sums = core_cycle_sums(n, w, *args, **kwargs)
            all_ints(sums, "the cycle-sum table")
            calls.append("cycles")
            return sums

        def partition_sum(n, block_weight):
            all_ints(block_weight, "the block weights")
            terms = core_partition_sum(n, block_weight)
            all_ints(terms.values(), "the partition sum")
            calls.append("partitions")
            return terms

        core_cycle_sums, core_partition_sum = core._cycle_sums, core._partition_sum
        monkeypatch.setattr(core, "_cycle_sums", cycle_sums)
        monkeypatch.setattr(core, "_partition_sum", partition_sum)
        route(arg)
        assert {"cycles", "partitions"} <= set(calls)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_row_prime_denominators_match_the_listing_oracle(self, n):
        w = row_prime_weights(n, 50 + n)
        g = deformed_by_listings(w)
        assert deformed_by_definition(w) == g
        assert deformed_powersum(w).to_fundamental() == g


class TestCapsBeforeWork:
    def test_power_sum_routes_refuse_before_building_tables(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("cycle-sum table built above the cap")

        monkeypatch.setattr("redei_berge.core._cycle_sums", no_tables)
        for route, arg in (
            (redei_berge_powersum, random_digraph(15, 0.5, seed=1)),
            (redei_berge_tournament, random_tournament(15, seed=2)),
            (redei_berge_two_cycle_free, Digraph(15, [(0, 1), (1, 2)])),
            (deformed_powersum, ArcWeights.random(15, seed=3)),
        ):
            with pytest.raises(CapExceededError, match=ENGINE_REFUSAL):
                route(arg)

    def test_definition_routes_refuse_before_building_tables(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("cycle-sum table built above the cap")

        monkeypatch.setattr("redei_berge.core._cycle_sums", no_tables)
        for route, arg in (
            (redei_berge_by_definition, random_digraph(15, 0.5, seed=4)),
            (deformed_by_definition, ArcWeights.random(15, seed=5)),
        ):
            with pytest.raises(CapExceededError, match=ENGINE_REFUSAL):
                route(arg)


class TestTrustedConstruction:
    """Route outputs are wrapped without re-validation; they must be what
    the validating constructors would have built from the same terms."""

    @pytest.mark.parametrize("n", range(11))
    def test_route_outputs_match_the_validating_constructors(self, n):
        d, w = random_digraph(n, 0.5, seed=600 + n), ArcWeights.random(n, seed=n)
        powersums = [
            redei_berge_powersum(d),
            redei_berge_tournament(random_tournament(n, seed=700 + n)),
            deformed_powersum(w),
        ]
        fundamentals = [
            redei_berge_by_definition(d),
            deformed_by_definition(w),
            *(f.to_fundamental() for f in powersums),
        ]
        for f in powersums:
            rebuilt = PowerSumPolynomial(f.terms)
            assert rebuilt == f and repr(rebuilt) == repr(f)
        for g in fundamentals:
            rebuilt = FundamentalQSym(g.n, g.terms)
            assert rebuilt == g and repr(rebuilt) == repr(g)


def partitions_of(n):
    return sorted(set(_cut_shapes(n)[1]))


class TestMatchesDefinition:
    """The check's comparer, on the two routes' monomial coefficients,
    against the comparison in the fundamental basis that it replaces."""

    def assert_same_verdicts(self, d, bump_at):
        f, g = redei_berge_powersum(d), redei_berge_by_definition(d)
        assert core._matches_definition(d, f)
        assert f.to_fundamental() == g
        for bump in (1, -1):
            wrong = f + P({bump_at: bump})
            assert not core._matches_definition(d, wrong)
            assert wrong.to_fundamental() != g

    def test_every_small_digraph_and_tournament(self):
        instances = [d for n in range(4) for d in enumerate_digraphs(n)]
        instances += [d for n in range(6) for d in enumerate_tournaments(n)]
        for i, d in enumerate(instances):
            shapes = partitions_of(d.n)
            self.assert_same_verdicts(d, shapes[i % len(shapes)])

    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_digraphs(self, n):
        rng = random.Random(500 + n)
        d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
        self.assert_same_verdicts(d, rng.choice(partitions_of(n)))

    @pytest.mark.parametrize(
        "definition, agrees",
        [
            (({(2,): 3, (1, 1): 3}, 3), True),  # m_2 + m_11 = h_2
            (({(2,): 3, (1, 1): 4}, 3), False),
            (({(2,): 1, (1, 1): 1}, 2), False),  # h_2 / 2
        ],
    )
    def test_both_sides_keep_their_own_scale(self, monkeypatch, definition, agrees):
        # h_2 = p_2 / 2 + p_11 / 2 = (2 m_2 + 2 m_11) / 2
        monkeypatch.setattr(core, "_listing_monomials", lambda n, w, scales: definition)
        h2 = P({(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        assert core._matches_definition(Digraph(2), h2) is agrees

    @pytest.mark.parametrize(
        "definition, parts",
        [
            ({(2,): 1}, (1, 1)),  # p_11 = m_2 + 2 m_11 has m_11 as well
            ({(2,): 1, (1, 1): 2}, (2,)),  # p_2 = m_2 lacks m_11
        ],
    )
    def test_a_key_on_one_side_only_disagrees(self, monkeypatch, definition, parts):
        monkeypatch.setattr(
            core, "_listing_monomials", lambda n, w, scales: (definition, 1)
        )
        assert not core._matches_definition(Digraph(2), P({parts: 1}))

    def test_refuses_above_the_cap_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a table was built above the cap")

        monkeypatch.setattr(core, "_listing_monomials", no_tables)
        monkeypatch.setattr(core, "_cycle_sums", no_tables)
        d = random_digraph(15, 0.5, seed=6)
        with pytest.raises(CapExceededError, match=ENGINE_REFUSAL):
            core._matches_definition(d, P({(1,): 1}))


class TestAtTheCycleSumCap:
    """Differential checks at n = 10..14: above the reach of the n! oracles,
    up to the cycle-sum cap, on a few seeded inputs per size up to 12 and
    one at 13 and at 14."""

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_zeta_counts_the_complements_paths(self, n):
        # independent routes: the cycle-sum engine against the path DP
        for seed in range(2 if n <= 12 else 1):
            d = random_digraph(n, 0.5, seed=100 * n + seed)
            hamps = count_hamiltonian_paths(d.complement())
            assert redei_berge_powersum(d).zeta() == hamps

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_tournament_form_matches_the_signed_form(self, n):
        # and both against the listing sum of q^maj_D(w), as below
        for seed in range(2 if n <= 12 else 1):
            d = random_tournament(n, seed=200 * n + seed)
            f = redei_berge_powersum(d)
            assert redei_berge_tournament(d) == f
            assert in_doubled_odd_cone(f)
            assert principal_specialisation(n, f.terms) == major_index_sum(n, d.rows)

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_power_sum_route_matches_definition_route(self, n):
        """Cycles of D and its complement against paths of the complement,
        in the fundamental basis.  Both routes run on ``_cycle_sums`` and
        ``_partition_sum``, so this checks the two reductions to that
        engine; the engine itself is checked against an inclusion--exclusion
        sum at these sizes in ``test_hamilton.py``.  Each route is also
        checked as a whole against the sum of q^maj_D(w) over the listings,
        which shares no code with the package, through the stable principal
        specialisation: ps(L_S) = q^(sum of S) / prod_(i<=n) (1 - q^i) and
        ps(p_k) = 1 / (1 - q^k) (Stanley, Enumerative Combinatorics 2,
        7.19)."""
        f, g = self.both_routes_specialise(random_digraph(n, 0.5, seed=300 * n))
        assert f.to_fundamental() == g

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_sparse_digraph_specialises_to_the_listing_sum(self, n):
        self.both_routes_specialise(random_digraph(n, 0.2, seed=400 * n))

    @staticmethod
    def both_routes_specialise(d: Digraph):
        """Checks both routes against the listing sum of q^maj_D(w), and
        returns their results: the power-sum route through its principal
        specialisation, the definition route's coefficients summed by the
        sum of their descent set."""
        f, g = redei_berge_powersum(d), redei_berge_by_definition(d)
        listings = major_index_sum(d.n, d.rows)
        assert sum(listings) == math.factorial(d.n)
        assert principal_specialisation(d.n, f.terms) == listings
        by_descents = [0] * len(listings)
        for S, c in g.terms.items():
            by_descents[sum(S.members)] += c
        assert by_descents == listings
        return f, g

    @pytest.mark.parametrize("n", [10, 12])
    def test_invariant_under_relabelling_reversal_and_loops(self, n):
        """U_D depends on no vertex names, is fixed by reversing every arc
        (a listing read backwards, and U_D is symmetric), and never reads
        a loop."""
        d = random_digraph(n, 0.5, seed=7)
        arcs = set(d.arcs())
        perm = random.Random(n).sample(range(n), n)
        f, g = redei_berge_powersum(d), redei_berge_by_definition(d)
        for other in (
            Digraph(n, [(perm[u], perm[v]) for u, v in arcs]),
            Digraph(n, [(v, u) for u, v in arcs]),
            Digraph(n, arcs ^ {(0, 0)}),
        ):
            assert other != d
            assert redei_berge_powersum(other) == f
            assert redei_berge_by_definition(other) == g

    @pytest.mark.parametrize("n", [10, 11, 12, 13])
    def test_deformed_zeta_is_the_s_weighted_path_sum(self, n):
        """Both deformed routes at x_1 = 1 against a Held--Karp DP in
        ``Fraction`` arithmetic, on rows with distinct large prime
        denominators.  Not at 14, where that DP alone takes over 3 s."""
        w = row_prime_weights(n, 400 + n)
        paths = weighted_path_sum(n, [[w.s(u, v) for v in range(n)] for u in range(n)])
        assert deformed_powersum(w).zeta() == paths
        assert deformed_by_definition(w).zeta() == paths


def induced(d: Digraph, keep) -> Digraph:
    """D[keep], relabelled in increasing order: the level of those vertices."""
    return level_subdigraph(d, [1 + (u not in keep) for u in range(d.n)], 1)


def weights_on(w: ArcWeights, keep) -> ArcWeights:
    pairs = itertools.product(enumerate(sorted(keep)), repeat=2)
    return ArcWeights(len(keep), {(i, j): w.t(a, b) for (i, a), (j, b) in pairs})


def t_coefficient(f: PowerSumPolynomial, m: int) -> PowerSumPolynomial:
    """[t^m] of f with each p_k replaced by p_k + t^k: for each p_lambda,
    the p of the parts left after sending parts of sum m to t^m, once per
    choice of those parts' positions.  At m = 1 this is df/dp_1."""
    terms: dict = {}
    for shape, c in f.terms.items():
        for r in range(len(shape) + 1):
            for sent in itertools.combinations(range(len(shape)), r):
                if sum(shape[i] for i in sent) == m:
                    rest = tuple(p for i, p in enumerate(shape) if i not in sent)
                    terms[rest] = terms.get(rest, 0) + c
    return P(terms)


class TestVertexDeletion:
    """Split the variables of the defining sum into x and one more variable
    t after them.  A listing splits where its indices reach t, and an arc
    across the split is a descent the split makes anyway, so
    U_D(x, t) = sum over T of t^|T| hamps(D^c[T]) U_(D - T)(x), and with
    p_k(x, t) = p_k(x) + t^k the coefficient of t^m is a sum over the
    m-sets T.  At m = 1 it reads dU_D/dp_1 = sum over v of U_(D - v): each
    size against the sizes below it, on other digraphs, with no oracle.
    The deformed function splits the same way, since the step across the
    split is strict and carries no weight; every step inside T stalls, so
    hamps(D^c[T]) becomes T's s-weighted Hamiltonian-path sum."""

    @staticmethod
    def holds(d: Digraph, m: int) -> bool:
        parts = P({})
        for T in itertools.combinations(range(d.n), m):
            hamps = count_hamiltonian_paths(induced(d, T).complement())
            rest = [v for v in range(d.n) if v not in T]
            parts += redei_berge_powersum(induced(d, rest)).scale(hamps)
        return t_coefficient(redei_berge_powersum(d), m) == parts

    @staticmethod
    def holds_deformed(w: ArcWeights, m: int) -> bool:
        parts = P({})
        for T in itertools.combinations(range(w.n), m):
            paths = weighted_path_sum(m, [[w.s(u, v) for v in T] for u in T])
            rest = [v for v in range(w.n) if v not in T]
            parts += deformed_powersum(weights_on(w, rest)).scale(paths)
        return t_coefficient(deformed_powersum(w), m) == parts

    @pytest.mark.parametrize("n", range(1, 9))
    def test_through_n8(self, n):
        for seed in range(3):
            assert self.holds(random_digraph(n, 0.5, seed=seed), 1)
            assert self.holds(random_tournament(n, seed=seed), 1)
            assert self.holds(random_digraph(n, 0.2, seed=seed), 1)
            assert self.holds_deformed(ArcWeights.random(n, seed=seed), 1)

    @pytest.mark.parametrize("n", range(9))
    def test_every_m_through_n8(self, n):
        for m in range(n + 1):
            assert self.holds(random_digraph(n, 0.5, seed=n), m)
            assert self.holds(random_tournament(n, seed=n), m)
            assert self.holds(random_digraph(n, 0.2, seed=n), m)
            assert self.holds_deformed(ArcWeights.random(n, seed=n), m)

    def test_at_13_and_14(self):
        # one input per size and route, about 3 s in all: the signed form
        # on tournaments, its fastest inputs at these sizes
        assert self.holds(random_tournament(13, seed=13), 1)
        assert self.holds(random_tournament(14, seed=14), 1)
        assert self.holds_deformed(ArcWeights.random(13, seed=13), 1)
