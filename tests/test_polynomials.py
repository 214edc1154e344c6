import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redei_berge import (
    CapExceededError,
    DescentSet,
    FundamentalQSym,
    PowerSumPolynomial,
)
from redei_berge import polynomials
from redei_berge.limits import CYCLE_SUM_CAP
from redei_berge.polynomials import (
    _cut_shapes,
    _monomials,
    _partition_sort_key,
    is_partition,
    partition_of,
)

P = PowerSumPolynomial
F = FundamentalQSym
D = DescentSet

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


def partitions_of(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n with no part above ``largest`` (default n)."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(k, *rest) for k in range(top, 0, -1) for rest in partitions_of(n - k, k)]


def z(lam: tuple[int, ...]) -> int:
    """Size of the centralizer of a permutation of cycle type lam."""
    return math.prod(
        k**m * math.factorial(m) for k, m in ((k, lam.count(k)) for k in set(lam))
    )


def L(n: int, *members: int) -> FundamentalQSym:
    return F(n, {D(n, members): 1})


class TestDescentSets:
    def test_composition_of_cut_set(self):
        assert DescentSet(6, {2, 3, 5}).composition() == (2, 1, 2, 1)

    def test_empty_cut_set_gives_one_part(self):
        assert DescentSet(5, ()).composition() == (5,)

    def test_all_cut_points_give_all_ones(self):
        assert DescentSet(4, {1, 2, 3}).composition() == (1, 1, 1, 1)

    def test_empty_composition(self):
        assert DescentSet(0, ()).composition() == ()

    @pytest.mark.parametrize("n", range(11))
    def test_bijection_exhaustive(self, n):
        # the bridge's table lists each descent set once, at the index
        # whose bit k - 1 marks member k
        keys, shapes = _cut_shapes(n)
        assert len(keys) == 1 << max(n - 1, 0)
        seen = set()
        for cuts, s in enumerate(keys):
            assert sum(1 << k - 1 for k in s) == cuts
            alpha = s.composition()
            assert sum(alpha) == n
            assert shapes[cuts] == tuple(sorted(alpha, reverse=True))
            assert is_partition(shapes[cuts])
            assert frozenset(itertools.accumulate(alpha[:-1])) == s.members
            seen.add(alpha)
        assert len(seen) == len(keys)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DescentSet(3, {3})
        with pytest.raises(ValueError):
            DescentSet(3, {0})

    def test_bad_parts_rejected(self):
        # a bool or a float part would pass a plain ``p >= 1`` check; each
        # tuple decreases, so only its parts can refuse it
        for parts in [(2, 1, 0), (2, True), (2, 1.0), (2, 1.5), (-1,)]:
            assert not is_partition(parts)

    @pytest.mark.parametrize(
        "n, members, bad",
        [
            (3, {1.0}, "member 1.0"),  # passes the range check, then floats the parts
            (3, {True}, "member True"),
            (True, (), "length True"),
            (2.5, (), "length 2.5"),
        ],
    )
    def test_rejects_non_integers(self, n, members, bad):
        with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
            DescentSet(n, members)


class TestPartitions:
    def test_partition_of_sorts(self):
        assert partition_of([1, 3, 2, 2]) == (3, 2, 2, 1)

    def test_is_partition(self):
        assert is_partition((3, 2, 2, 1))
        assert is_partition(())
        assert not is_partition((2, 3))
        assert not is_partition((2, 0))


class TestExpandFundamental:
    """Known symmetric functions reach the fundamental basis through the
    bridge from their power-sum forms."""

    def test_middle_descent_example(self):
        # the Schur function s_21 = (p_111 - p_3) / 3 is L_{1} + L_{2}, one
        # term per standard tableau of shape (2, 1)
        s21 = P({(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)})
        assert s21.to_fundamental() == F(3, {D(3, {1}): 1, D(3, {2}): 1})

    def test_empty_descents_is_complete_homogeneous(self):
        # h_n = sum p_lam / z_lam is the single fundamental L_{}
        for n in range(13):
            h = P({lam: Fraction(1, z(lam)) for lam in partitions_of(n)})
            assert h.to_fundamental() == L(n)

    def test_full_descents_is_elementary(self):
        # e_n = sum sign(lam) p_lam / z_lam is L_{1..n-1}
        for n in range(13):
            e = P(
                {
                    lam: Fraction((-1) ** (n - len(lam)), z(lam))
                    for lam in partitions_of(n)
                }
            )
            assert e.to_fundamental() == L(n, *range(1, n))

    def test_degree_zero(self):
        assert P({(): 1}).to_fundamental() == L(0)
        assert P().to_fundamental() == F(0)

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
        assert f == F(3, {D(3, ()): 1, D(3, {1}): 2, D(3, {2}): 2, D(3, {1, 2}): 1})

    def test_two_one_by_hand(self):
        # p_2 p_1 = M_3 + M_21 + M_12 = h_3 - e_3, worked by hand
        assert P({(2, 1): 1}).to_fundamental() == F(3, {D(3, ()): 1, D(3, {1, 2}): -1})

    def test_empty_partition_is_one(self):
        assert P({(): 1}).to_fundamental() == F(0, {D(0, ()): 1})

    @settings(max_examples=40)
    @given(st.integers(0, 6).flatmap(homogeneous_ppoly))
    def test_linear(self, f):
        g = f.scale(3)
        total = (f + g).to_fundamental()
        f_l, g_l = f.to_fundamental(), g.to_fundamental()
        for s in _cut_shapes(f.degree)[0]:
            assert total.coefficient(s) == f_l.coefficient(s) + g_l.coefficient(s)

    @pytest.mark.parametrize("n", range(7))
    def test_power_of_p1_counts_permutations_by_descent_set(self, n):
        counts: dict[DescentSet, int] = {}
        for w in itertools.permutations(range(n)):
            key = D(n, [i for i in range(1, n) if w[i - 1] > w[i]])
            counts[key] = counts.get(key, 0) + 1
        assert P({(1,) * n: 1}).to_fundamental() == F(n, counts)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_single_power_sum_is_alternating(self, n):
        # p_n = M_(n) = sum over S of (-1)^|S| L_S
        expected = F(n, {s: (-1) ** len(s.members) for s in _cut_shapes(n)[0]})
        assert P({(n,): 1}).to_fundamental() == expected

    def test_inhomogeneous_refused(self):
        with pytest.raises(ValueError):
            P({(2,): 1, (1,): 1}).to_fundamental()


def fillings(parts: tuple[int, ...], blocks: tuple[int, ...]) -> int:
    """Ways to send the parts (told apart by position) into the blocks so
    that every block is filled exactly: the M_blocks coefficient of
    p_parts, by plain recursion."""
    if not parts:
        return int(not any(blocks))
    first, rest = parts[0], parts[1:]
    return sum(
        fillings(rest, (*blocks[:j], room - first, *blocks[j + 1 :]))
        for j, room in enumerate(blocks)
        if room >= first
    )


class TestMonomialTable:
    """The cached p-to-m expansion behind the bridge, against the count of
    exact fillings of the blocks."""

    @pytest.mark.parametrize("n", range(9))
    def test_matches_fillings(self, n):
        for lam in partitions_of(n):
            expansion = dict(_monomials(lam))
            for mu in partitions_of(n):
                assert expansion.get(mu, 0) == fillings(lam, mu), (lam, mu)

    def test_holds_one_entry_per_partition(self):
        # one bridge per degree, through every partition of that degree
        for n in range(CYCLE_SUM_CAP + 1):
            P({lam: 1 for lam in partitions_of(n)}).to_fundamental()
        every_partition = sum(len(partitions_of(n)) for n in range(CYCLE_SUM_CAP + 1))
        assert every_partition == 508
        assert _monomials.cache_info().currsize <= every_partition

    def test_bridge_refuses_above_the_cap_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(polynomials, "_monomials", no_table)
        monkeypatch.setattr(polynomials, "_cut_shapes", no_table)
        message = "15 (degree) exceeds the cycle-sum cap of 14"
        with pytest.raises(CapExceededError, match=f"^{re.escape(message)}$"):
            P({(15,): 1}).to_fundamental()
        with pytest.raises(AssertionError, match="table built"):  # not refused
            P({(14,): 1}).to_fundamental()


class TestInvolutions:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_omega_on_generators(self, n):
        assert P({(n,): 1}).omega() == P({(n,): 1}).scale((-1) ** (n - 1))

    def test_omega_fixes_p111(self):
        f = P({(1, 1, 1): 1})
        assert f.omega() == f

    def test_omega_flips_mixed_signs(self):
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.omega() == P({(1, 1, 1): 1, (2, 1): -2, (3,): 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_antipode_on_generators(self, n):
        assert P({(n,): 1}).antipode() == P({(n,): 1}).scale(-1)

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
        assert P().zeta() == 0

    @settings(max_examples=40)
    @given(st.integers(0, 6).flatmap(homogeneous_ppoly))
    def test_matches_one_variable_evaluation(self, f):
        # x_1 = 1, rest 0, read in the fundamental basis
        assert f.zeta() == f.to_fundamental().zeta()

    @pytest.mark.parametrize("n", range(6))
    def test_fundamental_expansion_at_first_unit_vector(self, n):
        # at x1 = 1, rest 0, L_S is 1 for the empty descent set and 0
        # otherwise, and every p_lam is 1
        for s in _cut_shapes(n)[0]:
            assert F(n, {s: 1}).zeta() == (1 if not s.members else 0)
        for lam in partitions_of(n):
            assert P({lam: 1}).to_fundamental().zeta() == 1

    def test_fundamental_zeta_picks_empty_set(self):
        g = FundamentalQSym(3, {D(3, ()): 4, D(3, {1}): 1, D(3, {2}): 1})
        assert g.zeta() == 4
        assert FundamentalQSym(3).zeta() == 0


class TestArithmetic:
    def test_fundamental_combination_matches_powersum_expansion(self):
        g = FundamentalQSym(3, {D(3, ()): 4, D(3, {1}): 1, D(3, {2}): 1})
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.to_fundamental() == g

    def test_cancellation(self):
        f = P({(2, 1): 5, (1, 1): -2})
        assert f + f.scale(-1) == P()

    def test_scale_by_zero(self):
        assert P({(3,): 7}).scale(0) == P()

    def test_zero_coefficients_dropped(self):
        assert P({(2,): 0}).terms == {}
        assert not F(2, {D(2, ()): 0})

    def test_key_of_another_degree_rejected(self):
        with pytest.raises(ValueError):
            F(2, {D(3, ()): 1})
        with pytest.raises(ValueError):
            F(2, {(1,): 1})

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            P({(2,): 0.5})
        with pytest.raises(TypeError):
            F(2, {D(2, ()): 0.5})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: P({(1,): True}),
            lambda: P({(1,): 1}).scale(False),
            lambda: F(1, {D(1, ()): True}),
        ],
    )
    def test_bool_coefficients_rejected(self, build):
        with pytest.raises(TypeError, match="coefficient must be exact"):
            build()

    @pytest.mark.parametrize("parts", [(True,), (2, True), (1.0,), (2.5, 1)])
    def test_non_integer_parts_rejected(self, parts):
        with pytest.raises(ValueError, match=re.escape(f"partition: {parts!r}")):
            P({parts: 1})

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_degree_rejected(self, n):
        with pytest.raises(ValueError, match=f"^degree {n!r} is not an integer$"):
            F(n)

    def test_non_partition_key_rejected(self):
        with pytest.raises(ValueError):
            P({(1, 2): 1})

    @pytest.mark.parametrize("parts", [(1, 2), (2, 0), (2, True), (1.0,)])
    def test_coefficient_refuses_a_key_the_constructor_refuses(self, parts):
        with pytest.raises(ValueError) as refused:
            P({parts: 1})
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            P({(2, 1): 5}).coefficient(parts)

    @pytest.mark.parametrize("key", [D(4, {1}), D(2, ()), (1,), frozenset({1})])
    def test_fundamental_coefficient_refuses_a_key_of_another_degree(self, key):
        with pytest.raises(ValueError) as refused:
            F(3, {key: 1})
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            F(3, {D(3, {1}): 2}).coefficient(key)

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
        assert P().to_text() == "0"
        assert P({(): 1}).to_text() == "1"

    def test_text_rational_coefficient(self):
        assert P({(2,): Fraction(-3, 2)}).to_text() == "-3/2*p[2]"

    @staticmethod
    def decode(text: str) -> PowerSumPolynomial:
        return P(
            {
                tuple(int(part) for part in key.split(",")) if key else (): Fraction(value)
                for key, value in json.loads(text).items()
            }
        )

    def test_json_round_trip(self):
        f = P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})
        assert f.to_json() == '{"3": "1", "2,1": "2", "1,1,1": "1"}'
        assert self.decode(f.to_json()) == f

    def test_json_round_trip_with_constant_and_rationals(self):
        f = P({(): Fraction(1, 2), (4, 4): -3})
        assert f.to_json() == '{"4,4": "-3", "": "1/2"}'
        assert self.decode(f.to_json()) == f

    @settings(max_examples=60)
    @given(st.dictionaries(partitions, st.fractions(max_denominator=50), max_size=5))
    def test_json_maps_joined_parts_to_coefficients_in_term_order(self, terms):
        f = P(terms)
        expected = [
            (",".join(map(str, parts)), str(f.terms[parts]))
            for parts in sorted(f.terms, key=_partition_sort_key)
        ]
        assert list(json.loads(f.to_json()).items()) == expected
