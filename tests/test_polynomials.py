import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redei_berge import (
    DescentSet,
    FundamentalQSym,
    PowerSumPolynomial,
    all_descent_sets,
    partition_of,
)

P = PowerSumPolynomial
F = FundamentalQSym

partitions = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(partition_of)

ppolys = st.dictionaries(partitions, st.integers(-6, 6), max_size=5).map(P)


def homogeneous_ppoly(n: int) -> st.SearchStrategy[PowerSumPolynomial]:
    parts_of_n = [
        p
        for k in range(n + 1)
        for p in itertools.combinations_with_replacement(range(n, 0, -1), k)
        if sum(p) == n
    ]
    return st.dictionaries(
        st.sampled_from(parts_of_n), st.integers(-6, 6), max_size=4
    ).map(P)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    return [
        p
        for k in range(n + 1)
        for p in itertools.combinations_with_replacement(range(n, 0, -1), k)
        if sum(p) == n
    ]


def z(lam: tuple[int, ...]) -> int:
    """Size of the centralizer of a permutation of cycle type lam."""
    return math.prod(
        k**m * math.factorial(m) for k, m in ((k, lam.count(k)) for k in set(lam))
    )


def L(n: int, *members: int) -> FundamentalQSym:
    return F(n, {DescentSet.of(n, members): 1})


class TestExpandFundamental:
    """Known symmetric functions reach the fundamental basis through the
    bridge from their power-sum forms."""

    def test_middle_descent_example(self):
        # the Schur function s_21 = (p_111 - p_3) / 3 is L_{1} + L_{2}, one
        # term per standard tableau of shape (2, 1)
        s21 = P({(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)})
        assert s21.to_fundamental() == L(3, 1) + L(3, 2)

    def test_empty_descents_is_complete_homogeneous(self):
        # h_n = sum p_lam / z_lam is the single fundamental L_{}
        for n in range(7):
            h = P({lam: Fraction(1, z(lam)) for lam in partitions_of(n)})
            assert h.to_fundamental() == L(n)

    def test_full_descents_is_elementary(self):
        # e_n = sum sign(lam) p_lam / z_lam is L_{1..n-1}
        for n in range(7):
            e = P(
                {
                    lam: Fraction((-1) ** (n - len(lam)), z(lam))
                    for lam in partitions_of(n)
                }
            )
            assert e.to_fundamental() == L(n, *range(1, n))

    def test_degree_zero(self):
        assert P.one().to_fundamental() == L(0)
        assert P.zero().to_fundamental() == F.zero(0)

    def test_distinct_descent_sets_expand_distinctly(self):
        # the bridge is injective on the power-sum basis, degree up to 6
        for n in range(1, 7):
            images = [P({lam: 1}).to_fundamental() for lam in partitions_of(n)]
            assert all(images)
            assert len({hash(f) for f in images}) == len(images)
            assert len(set(images)) == len(images)


class TestExpandPowerSums:
    def test_one_variable(self):
        # restricting to one variable keeps only L_{}: p_221 there is x^5
        f = P({(2, 2, 1): 1}).to_fundamental()
        assert f.zeta() == 1

    def test_multinomial(self):
        # p_1^3 counts the six permutations of 3 by descent set
        f = P({(1, 1, 1): 1}).to_fundamental()
        assert f == L(3) + (L(3, 1) + L(3, 2)).scale(2) + L(3, 1, 2)

    def test_two_one_by_hand(self):
        # p_2 p_1 = M_3 + M_21 + M_12 = h_3 - e_3, worked by hand
        assert P({(2, 1): 1}).to_fundamental() == L(3) - L(3, 1, 2)

    @settings(max_examples=40)
    @given(partitions, partitions)
    def test_multiplicative_on_partition_union(self, lam, mu):
        assert P({lam: 1}) * P({mu: 1}) == P({partition_of(lam + mu): 1})

    def test_empty_partition_is_one(self):
        assert P.one().to_fundamental() == F(0, {DescentSet.of(0): 1})

    @settings(max_examples=40)
    @given(st.integers(0, 6).flatmap(homogeneous_ppoly))
    def test_linear(self, f):
        g = f.scale(3)
        assert (f + g).to_fundamental() == f.to_fundamental() + g.to_fundamental()

    @pytest.mark.parametrize("n", range(7))
    def test_power_of_p1_counts_permutations_by_descent_set(self, n):
        counts: dict[DescentSet, int] = {}
        for w in itertools.permutations(range(n)):
            key = DescentSet.of(n, [i for i in range(1, n) if w[i - 1] > w[i]])
            counts[key] = counts.get(key, 0) + 1
        assert P({(1,) * n: 1}).to_fundamental() == F(n, counts)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_power_sum_is_alternating(self, n):
        # p_n = M_(n) = sum over S of (-1)^|S| L_S
        expected = F(n, {s: (-1) ** len(s.members) for s in all_descent_sets(n)})
        assert P.p(n).to_fundamental() == expected

    def test_inhomogeneous_refused(self):
        with pytest.raises(ValueError):
            P({(2,): 1, (1,): 1}).to_fundamental()


class TestInvolutions:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_omega_on_generators(self, n):
        assert P.p(n).omega() == P.p(n).scale((-1) ** (n - 1))

    def test_omega_fixes_p111(self):
        f = P({(1, 1, 1): 1})
        assert f.omega() == f

    def test_omega_flips_mixed_signs(self):
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.omega() == P({(1, 1, 1): 1, (2, 1): -2, (3,): 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_antipode_on_generators(self, n):
        assert P.p(n).antipode() == P.p(n).scale(-1)

    def test_antipode_on_cube(self):
        assert P({(1, 1, 1): 1}).antipode() == P({(1, 1, 1): -1})

    @settings(max_examples=60)
    @given(ppolys)
    def test_omega_is_involution(self, f):
        assert f.omega().omega() == f

    @settings(max_examples=60)
    @given(ppolys)
    def test_antipode_is_involution(self, f):
        assert f.antipode().antipode() == f

    @settings(max_examples=40)
    @given(st.integers(0, 8).flatmap(homogeneous_ppoly))
    def test_antipode_is_signed_omega_on_homogeneous(self, f):
        n = f.degree
        assert f.antipode() == f.omega().scale((-1) ** n)


class TestZeta:
    @settings(max_examples=30)
    @given(partitions)
    def test_single_partition_evaluates_to_one(self, lam):
        assert P({lam: 1}).zeta() == 1

    def test_example_counts_hamiltonian_paths_of_complement(self):
        assert P({(1, 1, 1): 1, (2, 1): 2, (3,): 1}).zeta() == 4

    def test_zero(self):
        assert P.zero().zeta() == 0

    @settings(max_examples=40)
    @given(st.integers(0, 6).flatmap(homogeneous_ppoly))
    def test_matches_one_variable_evaluation(self, f):
        # x_1 = 1, rest 0, read in the fundamental basis
        assert f.zeta() == f.to_fundamental().zeta()

    @pytest.mark.parametrize("n", range(6))
    def test_fundamental_expansion_at_first_unit_vector(self, n):
        # at x1 = 1, rest 0, L_S is 1 for the empty descent set and 0
        # otherwise, and every p_lam is 1
        for s in all_descent_sets(n):
            assert F(n, {s: 1}).zeta() == (1 if not s.members else 0)
        for lam in partitions_of(n):
            assert P({lam: 1}).to_fundamental().zeta() == 1

    def test_fundamental_zeta_picks_empty_set(self):
        g = FundamentalQSym(
            3, {DescentSet.of(3): 4, DescentSet.of(3, {1}): 1, DescentSet.of(3, {2}): 1}
        )
        assert g.zeta() == 4
        assert FundamentalQSym.zero(3).zeta() == 0


class TestArithmetic:
    def test_fundamental_combination_matches_powersum_expansion(self):
        g = FundamentalQSym(
            3, {DescentSet.of(3): 4, DescentSet.of(3, {1}): 1, DescentSet.of(3, {2}): 1}
        )
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.to_fundamental() == g

    def test_cancellation(self):
        f = P({(2, 1): 5, (1, 1): -2})
        assert f + f.scale(-1) == P.zero()
        g = F(2, {DescentSet.of(2, {1}): Fraction(1, 2)})
        assert g - g == F.zero(2)

    def test_scale_by_zero(self):
        assert P({(3,): 7}).scale(0) == P.zero()

    def test_zero_coefficients_dropped(self):
        assert P({(2,): 0}).terms == {}
        assert not F(2, {DescentSet.of(2): 0})

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            L(2) + L(3)

    def test_key_of_another_degree_rejected(self):
        with pytest.raises(ValueError):
            F(2, {DescentSet.of(3): 1})
        with pytest.raises(ValueError):
            F(2, {(1,): 1})

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            P({(2,): 0.5})

    def test_non_partition_key_rejected(self):
        with pytest.raises(ValueError):
            P({(1, 2): 1})

    def test_rational_coefficients_survive(self):
        f = P({(2,): Fraction(1, 3)})
        assert (f + f + f).coefficient((2,)) == 1


class TestRendering:
    def test_text_ordering_and_signs(self):
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.to_text() == "p[3] + 2*p[2,1] + p[1,1,1]"
        g = P({(1, 1, 1): 1, (2, 1): -1, (3,): 1})
        assert g.to_text() == "p[3] - p[2,1] + p[1,1,1]"

    def test_text_mixed_degrees_and_constants(self):
        f = P({(): 2, (1,): -1})
        assert f.to_text() == "-p[1] + 2"
        assert P.zero().to_text() == "0"
        assert P.one().to_text() == "1"

    def test_text_rational_coefficient(self):
        assert P({(2,): Fraction(-3, 2)}).to_text() == "-3/2*p[2]"

    def test_json_round_trip(self):
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert json.loads(f.to_json()) == {"3": "1", "2,1": "2", "1,1,1": "1"}
        assert P.from_json(f.to_json()) == f

    def test_json_round_trip_with_constant_and_rationals(self):
        f = P({(): Fraction(1, 2), (4, 4): -3})
        assert P.from_json(f.to_json()) == f

    @settings(max_examples=60)
    @given(st.dictionaries(partitions, st.fractions(max_denominator=50), max_size=5))
    def test_json_round_trip_property(self, terms):
        f = P(terms)
        assert P.from_json(f.to_json()) == f

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"2": "1e400"}', "rational string"),  # an exponent, refused unparsed
            ('{"2": "1.5"}', "rational string"),
            ('{"2": 1.5}', "rational string"),
            ('{"2": true}', "rational string"),
            ('{"2": "1/0"}', "zero denominator"),
        ],
    )
    def test_json_refuses_inexact_coefficients(self, text, message):
        with pytest.raises(ValueError, match=message):
            P.from_json(text)
