import re

import pytest
from hypothesis import given, strategies as st

from redei_berge import DescentSet
from redei_berge.kernel import (
    CycleClass,
    Permutation,
    all_descent_sets,
    all_permutations,
    is_composition,
    is_partition,
    partition_of,
)


class TestDescentSets:
    def test_composition_of_cut_set(self):
        assert DescentSet(6, {2, 3, 5}).composition() == (2, 1, 2, 1)

    def test_empty_cut_set_gives_one_part(self):
        assert DescentSet(5, ()).composition() == (5,)

    def test_all_cut_points_give_all_ones(self):
        assert DescentSet(4, {1, 2, 3}).composition() == (1, 1, 1, 1)

    def test_from_composition(self):
        assert DescentSet.from_composition((2, 1, 2, 1)) == DescentSet(6, {2, 3, 5})
        assert DescentSet.from_composition((7,)) == DescentSet(7, ())
        assert DescentSet.from_composition((1, 1, 1)) == DescentSet(3, {1, 2})

    def test_empty_composition(self):
        assert DescentSet.from_composition(()) == DescentSet(0, ())
        assert DescentSet(0, ()).composition() == ()

    @pytest.mark.parametrize("n", range(11))
    def test_bijection_exhaustive(self, n):
        seen = set()
        for s in all_descent_sets(n):
            alpha = s.composition()
            assert sum(alpha) == n
            assert is_composition(alpha)
            assert DescentSet.from_composition(alpha) == s
            seen.add(alpha)
        assert len(seen) == (1 << max(n - 1, 0)) if n else 1

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DescentSet(3, {3})
        with pytest.raises(ValueError):
            DescentSet(3, {0})

    def test_bad_composition_rejected(self):
        with pytest.raises(ValueError):
            DescentSet.from_composition((2, 0, 1))

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

    @pytest.mark.parametrize("parts", [(True, 2), (1.0, 2), (2, 1.5)])
    def test_from_composition_rejects_non_integer_parts(self, parts):
        assert not is_composition(parts)
        message = re.escape(f"not a composition: {parts!r}")
        with pytest.raises(ValueError, match=message):
            DescentSet.from_composition(parts)


class TestPartitions:
    def test_partition_of_sorts(self):
        assert partition_of([1, 3, 2, 2]) == (3, 2, 2, 1)

    def test_is_partition(self):
        assert is_partition((3, 2, 2, 1))
        assert is_partition(())
        assert not is_partition((2, 3))
        assert not is_partition((2, 0))


class TestCycleClass:
    def test_canonical_rotation(self):
        assert CycleClass((3, 1, 4)).verts == (1, 4, 3)
        assert CycleClass((1, 2, 3, 4)) == CycleClass((3, 4, 1, 2))
        assert CycleClass((1, 2, 3, 4)) != CycleClass((4, 3, 2, 1))

    def test_reversal(self):
        assert CycleClass((3, 1, 4)).reversal() == CycleClass((4, 1, 3))
        assert CycleClass((5,)).reversal() == CycleClass((5,))

    def test_carcs(self):
        assert CycleClass((3, 1, 4)).carcs() == frozenset({(3, 1), (1, 4), (4, 3)})
        assert CycleClass((7,)).carcs() == frozenset({(7, 7)})

    @pytest.mark.parametrize("verts, bad", [((1.0, 2), "1.0"), ((0, True), "True")])
    def test_rejects_non_integer_entries(self, verts, bad):
        with pytest.raises(ValueError, match=f"^entry {bad} is not an integer$"):
            CycleClass(verts)

    def test_rejects_repeats_and_empty(self):
        with pytest.raises(ValueError):
            CycleClass((1, 2, 1))
        with pytest.raises(ValueError):
            CycleClass(())

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    def test_reversal_is_involution(self, verts):
        gamma = CycleClass(verts)
        assert gamma.reversal().reversal() == gamma
        assert len(gamma.reversal()) == len(gamma)


class TestPermutation:
    def test_reversing_permutation_on_seven(self):
        w0 = Permutation([6 - i for i in range(7)])
        assert {c.verts for c in w0.cycles} == {(0, 6), (1, 5), (2, 4), (3,)}
        assert w0.cycle_type == (2, 2, 2, 1)

    def test_identity_cycles(self):
        e = Permutation(range(5))
        assert all(len(c) == 1 for c in e.cycles)
        assert len(e.cycles) == 5
        assert e.cycle_type == (1, 1, 1, 1, 1)

    def test_three_cycle_example(self):
        # images of 0..5 are 1, 2, 0, 4, 3, 5
        sigma = Permutation([1, 2, 0, 4, 3, 5])
        assert {c.verts for c in sigma.cycles} == {(0, 1, 2), (3, 4), (5,)}

    def test_single_cycle_type(self):
        sigma = Permutation.from_cycles(6, [tuple(range(6))])
        assert sigma.cycle_type == (6,)

    def test_from_cycles_matches_example(self):
        assert Permutation.from_cycles(4, [(0, 2, 1)]).images == (2, 0, 1, 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(0, 1), (1, 2)])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    @pytest.mark.parametrize("image", [1.0, True])
    def test_rejects_non_integer_image(self, image):
        # [1.0, 0] and [True, 0] sort equal to [0, 1]
        with pytest.raises(ValueError, match=f"image {image!r} is not an integer"):
            Permutation([image, 0])

    def test_cycle_structure_exhaustive_through_eight(self):
        for n in range(9):
            for sigma in all_permutations(n):
                cycles = sigma.cycles
                assert sum(len(c) for c in cycles) == n
                assert sorted(sigma.cycle_type, reverse=True) == list(sigma.cycle_type)
                for gamma in cycles:
                    v = gamma.verts[0]
                    w = v
                    for _ in range(len(gamma)):
                        w = sigma(w)
                    assert w == v
                    # the cycle really traces sigma
                    for i, u in enumerate(gamma.verts):
                        assert sigma(u) == gamma.verts[(i + 1) % len(gamma)]

    @given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
    def test_cycles_rebuild_the_permutation(self, images):
        sigma = Permutation(images)
        rebuilt = Permutation.from_cycles(sigma.n, [c.verts for c in sigma.cycles])
        assert rebuilt == sigma

    def test_counts(self):
        assert sum(1 for _ in all_permutations(4)) == 24
        assert list(all_permutations(0)) == [Permutation(())]
