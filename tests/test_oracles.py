import itertools
import math
import random
import re

import pytest

from conftest import THREE_LOOP
from redei_berge import (
    ArcWeights,
    CapExceededError,
    DescentSet,
    Digraph,
    FundamentalQSym,
    PowerSumPolynomial,
    count_hamiltonian_paths,
    deformed_by_definition,
    deformed_powersum,
    enumerate_digraphs,
    enumerate_tournaments,
    random_digraph,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from redei_berge.oracles import (
    count_friendly_listings,
    count_listings_containing,
    count_perms_containing,
    cycle_type,
    cycle_weight_sum,
    d_cycle_excess,
    deformed_by_listings,
    friendly_product,
    is_arc_set_of_path_cover,
    is_cycle,
    is_linear,
    is_risky,
    level_subdigraph,
    mixed_cycle_permutations,
    path_cover_of,
    polya_sum,
    redei_berge_by_listings,
    redei_berge_by_signed_perms,
    signed_linear_sum,
    signed_subset_sum,
    signed_sum_per_perm,
)
from redei_berge.polynomials import _cut_shapes

# the 8-vertex example: a 4-path cover {(0,3,2), (1,7), (4), (6,5)}
COVER_EXAMPLE = Digraph(8, [(0, 3), (3, 2), (1, 7), (6, 5)])


def random_linear_set(rng: random.Random, n: int) -> Digraph:
    verts = list(range(n))
    rng.shuffle(verts)
    arcs = []
    while verts:
        size = rng.randint(1, len(verts))
        block, verts = verts[:size], verts[size:]
        arcs.extend(zip(block, block[1:]))
    return Digraph(n, arcs)


class TestLinearity:
    def test_cover_example_is_linear(self):
        assert is_linear(COVER_EXAMPLE)
        cover = path_cover_of(COVER_EXAMPLE)
        assert set(cover) == {(0, 3, 2), (1, 7), (4,), (6, 5)}

    def test_cycle_is_not_linear(self):
        assert not is_linear(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert path_cover_of(Digraph(1, [(0, 0)])) is None

    def test_empty_set_is_linear(self):
        assert path_cover_of(Digraph(3)) == ((0,), (1,), (2,))

    def test_degree_violations(self):
        assert not is_linear(Digraph(3, [(0, 1), (0, 2)]))
        assert not is_linear(Digraph(3, [(0, 2), (1, 2)]))

    def test_criteria_agree_random(self):
        rng = random.Random(61)
        for _ in range(500):
            n = rng.randint(2, 6)
            size = rng.randint(0, min(8, n * n))
            pairs = rng.sample(
                [(u, v) for u in range(n) for v in range(n)], size
            )
            arc_set = Digraph(n, pairs)
            assert is_linear(arc_set) == is_arc_set_of_path_cover(arc_set)

    def test_subsets_of_linear_sets_are_linear(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 8)
            linear = random_linear_set(rng, n)
            assert is_linear(linear)
            subset = [a for a in linear.arcs() if rng.random() < 0.5]
            assert is_linear(Digraph(n, subset))


class TestContainmentCounts:
    def test_empty_set_counts_everything(self):
        for n in range(5):
            empty = Digraph(n)
            assert count_listings_containing(empty) == math.factorial(n)
            assert count_perms_containing(empty) == math.factorial(n)

    def test_full_path_pins_one_listing(self):
        path = Digraph(4, [(2, 0), (0, 3), (3, 1)])
        assert count_listings_containing(path) == 1
        assert count_perms_containing(path) == 1

    def test_cover_example_counts(self):
        assert count_listings_containing(COVER_EXAMPLE) == 24
        assert count_perms_containing(COVER_EXAMPLE) == 24

    def test_nonlinear_has_no_listings(self):
        cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert count_listings_containing(cyc) == 0
        # ...but a permutation can still contain it: sigma is pinned to the
        # 3-cycle, and any leftover vertex is fixed
        assert count_perms_containing(cyc) == 1
        assert count_perms_containing(Digraph(4, [(0, 1), (1, 2), (2, 0)])) == 1

    def test_factorial_of_cover_size_random(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(1, 6)
            linear = random_linear_set(rng, n)
            k = len(path_cover_of(linear))
            assert count_listings_containing(linear) == math.factorial(k)
            assert count_perms_containing(linear) == math.factorial(k)


class TestSignedLinearSum:
    def test_arcless_digraph(self):
        for n in range(6):
            assert signed_linear_sum(Digraph(n)) == math.factorial(n)

    def test_example_digraph(self):
        assert signed_linear_sum(THREE_LOOP) == 4

    def test_equals_complement_hamps_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert (
                    signed_linear_sum(d)
                    == count_hamiltonian_paths(d.complement())
                )

    def test_equals_complement_hamps_random(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.randint(4, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            assert (
                signed_linear_sum(d)
                == count_hamiltonian_paths(d.complement())
            )

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equals_complement_hamps_dense(self, n):
        # every arc but those of one Hamiltonian path and up to n others, so
        # the complement keeps paths to count; at n = 7 and 8 there are 33
        # and 43 arcs off the diagonal, beyond a sum over all 2^arcs subsets
        rng = random.Random(n)
        path = rng.sample(range(n), n)
        removed = set(zip(path, path[1:]))
        removed |= {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        d = Digraph(
            n, [(u, v) for u in range(n) for v in range(n) if (u, v) not in removed]
        )
        hamps = count_hamiltonian_paths(d.complement())
        assert hamps >= 1
        assert signed_linear_sum(d) == hamps

    def test_against_fully_brute_evaluation(self):
        # same sum with the permutation count done by raw enumeration
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(0, 3)
            d = random_digraph(n, 0.6, seed=rng.getrandbits(32))
            arcs = [a for a in d.arcs()]
            brute = 0
            for r in range(len(arcs) + 1):
                for subset in itertools.combinations(arcs, r):
                    arc_set = Digraph(n, subset)
                    if is_linear(arc_set):
                        brute += (-1) ** r * count_perms_containing(arc_set)
            assert signed_linear_sum(d) == brute


class TestSignedSumPerPerm:
    def test_identity_on_loop_free(self):
        d = Digraph(4, [(0, 1), (1, 2)])
        assert signed_sum_per_perm(d, (0, 1, 2, 3)) == 1

    def test_single_cycle_of_the_digraph(self):
        for k in range(2, 6):
            d = Digraph(k, [(i, (i + 1) % k) for i in range(k)])
            sigma = (*range(1, k), 0)  # the k-cycle (0 1 ... k-1)
            assert signed_sum_per_perm(d, sigma) == (-1) ** (k - 1)

    def test_cycle_neither_in_digraph_nor_complement(self):
        d = Digraph(3, [(0, 1)])
        sigma = (1, 0, 2)  # the 2-cycle (0 1)
        assert signed_sum_per_perm(d, sigma) == 0

    def test_case_formula_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                members = set(mixed_cycle_permutations(d))
                for sigma in itertools.permutations(range(n)):
                    expected = (
                        (-1) ** d_cycle_excess(d, sigma) if sigma in members else 0
                    )
                    assert signed_sum_per_perm(d, sigma) == expected

    def test_rebuilds_powersum_form_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert redei_berge_by_signed_perms(d) == redei_berge_powersum(d)

    def test_rebuilds_powersum_form_random_n5(self):
        rng = random.Random(71)
        for n in (4, 4, 4, 5, 5, 5):
            for p in (0.3, 0.5, 0.8):
                d = random_digraph(n, p, seed=rng.getrandbits(32))
                assert redei_berge_by_signed_perms(d) == redei_berge_powersum(d)


class TestFriendlyListings:
    def test_constant_levels_count_complement_hamps(self):
        for d in (THREE_LOOP, Digraph(4, [(0, 1), (2, 3)])):
            assert (
                count_friendly_listings(d, [1] * d.n)
                == count_hamiltonian_paths(d.complement())
            )

    def test_injective_levels_pin_one_listing(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(1, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            levels = list(range(1, n + 1))
            rng.shuffle(levels)
            assert count_friendly_listings(d, levels) == 1

    def test_two_level_product_formula(self):
        rng = random.Random(89)
        for _ in range(20):
            d = random_digraph(5, 0.5, seed=rng.getrandbits(32))
            levels = [rng.randint(1, 2) for _ in range(5)]
            assert count_friendly_listings(d, levels) == friendly_product(d, levels)

    def test_product_formula_general_levels(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(0, 5)
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            levels = [rng.randint(1, 3) for _ in range(n)]
            assert count_friendly_listings(d, levels) == friendly_product(d, levels)

    def test_level_subdigraph(self):
        levels = [1, 2, 1]
        sub = level_subdigraph(THREE_LOOP, levels, 1)
        assert sub == Digraph(2, [(1, 1)])  # vertices 0, 2 relabelled
        assert level_subdigraph(THREE_LOOP, levels, 3) == Digraph(0)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            count_friendly_listings(THREE_LOOP, [1, 2])
        with pytest.raises(ValueError):
            count_friendly_listings(THREE_LOOP, [0, 1, 2])

    @pytest.mark.parametrize(
        "side",
        [
            count_friendly_listings,
            friendly_product,
            lambda d, levels: level_subdigraph(d, levels, 1),
        ],
        ids=["count_friendly_listings", "friendly_product", "level_subdigraph"],
    )
    @pytest.mark.parametrize(
        "levels, message",
        [
            ([1, True], "level True is not an integer"),
            ([1.5, 2], "level 1.5 is not an integer"),
            ([0, -1], "level 0 is not positive"),
            ([1, -1], "level -1 is not positive"),
            ([1], "expected 2 levels, got 1"),
        ],
    )
    def test_every_side_refuses_the_same_levels(self, side, levels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            side(Digraph(2, [(0, 1)]), levels)


class TestPolyaSum:
    def test_identity_gives_power_of_linear_form(self):
        e = (0, 1, 2)
        expected = PowerSumPolynomial({(1, 1, 1): 1}).to_fundamental()
        assert polya_sum(e) == expected
        # p_1^3 counts the six permutations of 3 by descent set
        assert expected.coefficient(DescentSet(3, {1})) == 2
        assert expected.coefficient(DescentSet(3, {1, 2})) == 1

    def test_single_cycle_gives_power_sum(self):
        sigma = (1, 2, 3, 0)  # the 4-cycle (0 1 2 3)
        assert polya_sum(sigma) == PowerSumPolynomial({(4,): 1}).to_fundamental()
        # p_4 = M_4 = sum over S of (-1)^|S| L_S
        assert polya_sum(sigma) == FundamentalQSym(
            4, {s: (-1) ** len(s.members) for s in _cut_shapes(4)[0]}
        )

    def test_three_two_one_cycle_type(self):
        sigma = (1, 2, 0, 4, 3, 5)
        expected = PowerSumPolynomial({(3, 2, 1): 1}).to_fundamental()
        assert polya_sum(sigma) == expected

    def test_matches_expansion_for_all_of_s4(self):
        for n in range(5):
            for sigma in itertools.permutations(range(n)):
                assert (
                    polya_sum(sigma)
                    == PowerSumPolynomial({cycle_type(sigma): 1}).to_fundamental()
                )

    def test_colourings_capped_before_enumeration(self):
        refusal = "^387420489 cycle colourings exceeds the enumeration cap of 16777216$"
        with pytest.raises(CapExceededError, match=refusal):
            polya_sum(tuple(range(9)))  # 9^9 colourings

    @pytest.mark.parametrize("c", [26, 2000])
    def test_colourings_compared_by_cycle_count(self, c):
        # from 2^64 up the count is named, not written out: 2000^2000 has
        # 6,602 digits, more than int-to-str converts
        refusal = rf"^{c}\^{c} cycle colourings exceeds the enumeration cap of 16777216$"
        with pytest.raises(CapExceededError, match=refusal):
            polya_sum(tuple(range(c)))


class TestSignedSubsetSum:
    def test_small_sizes(self):
        assert signed_subset_sum(0) == 1
        assert signed_subset_sum(1) == 0
        assert signed_subset_sum(5) == 0

    @pytest.mark.parametrize("size", range(13))
    def test_vanishes_except_empty(self, size):
        assert signed_subset_sum(size) == (1 if size == 0 else 0)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            signed_subset_sum(25)
        with pytest.raises(ValueError):
            signed_subset_sum(-1)


def signed_weight(d):
    """(-1)^(len-1) on the cycles of d, 1 on those of its complement."""
    comp = d.complement()
    return lambda c: (-1) ** (len(c) - 1) if is_cycle(d, c) else int(is_cycle(comp, c))


def tournament_weight(d):
    """2 on the odd nontrivial cycles of d, 1 on fixed points."""
    return lambda c: 1 if len(c) == 1 else 2 * (len(c) % 2 == 1 and is_cycle(d, c))


def two_cycle_free_weight(d):
    """1 on the cycles of d or its complement that are not risky."""
    comp = d.complement()
    return lambda c: int(not is_risky(d, c) and (is_cycle(d, c) or is_cycle(comp, c)))


def deformed_weight(w):
    """Product of s minus product of t over the cyclic arcs."""

    def weight(c):
        s_product = t_product = 1
        for u, v in zip(c, c[1:] + c[:1]):
            s_product *= w.s(u, v)
            t_product *= w.t(u, v)
        return s_product - t_product

    return weight


def random_two_cycle_free(rng, n):
    arcs = [(u, u) for u in range(n) if rng.random() < 0.5]
    for u, v in itertools.combinations(range(n), 2):
        arcs += rng.choice([[], [(u, v)], [(v, u)]])
    return Digraph(n, arcs)


class TestCycleWeightSum:
    """Every power-sum route against the literal per-cycle weights of its
    formula, summed over all n! permutations."""

    def test_identity_weight_counts_permutations_by_type(self):
        f = cycle_weight_sum(4, lambda c: 1)
        assert f == PowerSumPolynomial(
            {(4,): 6, (3, 1): 8, (2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}
        )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            cycle_weight_sum(10, lambda c: 1)

    def test_signed_and_two_cycle_free_forms_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert redei_berge_powersum(d) == cycle_weight_sum(n, signed_weight(d))
                if d.is_two_cycle_free():
                    assert redei_berge_two_cycle_free(d) == cycle_weight_sum(
                        n, two_cycle_free_weight(d)
                    )

    def test_tournament_form_exhaustive_n5(self):
        for n in range(6):
            for d in enumerate_tournaments(n):
                assert redei_berge_tournament(d) == cycle_weight_sum(
                    n, tournament_weight(d)
                )
                if n <= 4:
                    assert redei_berge_two_cycle_free(d) == cycle_weight_sum(
                        n, two_cycle_free_weight(d)
                    )

    def test_signed_and_two_cycle_free_forms_random_n7(self):
        rng = random.Random(61)
        for n in (4, 5, 6, 6, 7, 7):
            d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
            assert redei_berge_powersum(d) == cycle_weight_sum(n, signed_weight(d))
            f = random_two_cycle_free(rng, n)
            assert redei_berge_two_cycle_free(f) == cycle_weight_sum(
                n, two_cycle_free_weight(f)
            )

    def test_deformed_form_random_weights_n5(self):
        rng = random.Random(67)
        for n in (0, 1, 2, 3, 4, 4, 5, 5):
            w = ArcWeights.random(n, seed=rng.getrandbits(32))
            assert deformed_powersum(w) == cycle_weight_sum(n, deformed_weight(w))


class TestListingSums:
    """The definition routes, which sum path weights over set partitions,
    against the defining sums over all n! listings."""

    def test_cap(self):
        refusal = "^10 vertices exceeds the factorial cap of 9$"
        with pytest.raises(CapExceededError, match=refusal):
            redei_berge_by_listings(Digraph(10))
        with pytest.raises(CapExceededError, match=refusal):
            deformed_by_listings(ArcWeights(10))

    def test_definition_route_exhaustive_n3(self):
        for n in range(4):
            for d in enumerate_digraphs(n):
                assert redei_berge_by_definition(d) == redei_berge_by_listings(d)

    def test_definition_route_tournaments_exhaustive_n5(self):
        for n in range(6):
            for d in enumerate_tournaments(n):
                assert redei_berge_by_definition(d) == redei_berge_by_listings(d)

    def test_definition_route_random_n8(self):
        rng = random.Random(71)
        for n in (4, 5, 6, 6, 7, 7, 8, 8):
            density = rng.choice((0.2, 0.5, 0.8))
            d = random_digraph(n, density, seed=rng.getrandbits(32))
            assert redei_berge_by_definition(d) == redei_berge_by_listings(d)

    def test_deformed_route_random_weights_n6(self):
        rng = random.Random(73)
        for n in (0, 1, 2, 3, 4, 4, 5, 5, 6, 6):
            w = ArcWeights.random(n, seed=rng.getrandbits(32))
            assert deformed_by_definition(w) == deformed_by_listings(w)
