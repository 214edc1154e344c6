"""The combinatorial vocabulary of the package: compositions, and the
partitions and descent sets that index the two bases in ``polynomials``,
and the plain tuples that the oracles use for permutations (image tuples)
and their cycles."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from redei_berge import DescentSet, Digraph, random_digraph
from redei_berge.oracles import cycle_type, cycles_of, is_cycle
from redei_berge.polynomials import _cut_shapes, is_partition, partition_of


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


class TestCycleClass:
    """A cycle is a tuple of distinct vertices, each mapped to the next and
    the last to the first."""

    def test_canonical_rotation(self):
        # 3 -> 1 -> 4 -> 3 is reported from its minimal vertex
        assert cycles_of((0, 4, 2, 1, 3)) == ((0,), (1, 4, 3), (2,))

    def test_carcs(self):
        d = Digraph(8, [(3, 1), (1, 4), (4, 3), (7, 7)])
        assert is_cycle(d, (3, 1, 4)) and is_cycle(d, (1, 4, 3))
        assert not is_cycle(d, (3, 4, 1))
        assert is_cycle(d, (7,)) and not is_cycle(d, (5,))  # the loop (v, v)
        for missing in [(3, 1), (1, 4), (4, 3)]:
            arcs = [(3, 1), (1, 4), (4, 3)]
            arcs.remove(missing)
            assert not is_cycle(Digraph(8, arcs), (3, 1, 4))

    @given(st.integers(1, 5), st.integers(0, 2**32))
    def test_reversal(self, n, seed):
        # the reversed cycle lies in d iff the cycle lies in d's transpose
        d = random_digraph(n, 0.7, seed=seed)
        transpose = Digraph(n, [(v, u) for u, v in d.arcs()])
        for k in range(1, n + 1):
            for cycle in itertools.permutations(range(n), k):
                assert is_cycle(d, cycle[::-1]) == is_cycle(transpose, cycle)


class TestPermutation:
    """A permutation of 0..n-1 is its image tuple."""

    def test_reversing_permutation_on_seven(self):
        w0 = tuple(6 - i for i in range(7))
        assert cycles_of(w0) == ((0, 6), (1, 5), (2, 4), (3,))
        assert cycle_type(w0) == (2, 2, 2, 1)

    def test_identity_cycles(self):
        assert cycles_of(range(5)) == ((0,), (1,), (2,), (3,), (4,))
        assert cycle_type(range(5)) == (1, 1, 1, 1, 1)

    def test_three_cycle_example(self):
        # images of 0..5 are 1, 2, 0, 4, 3, 5
        assert cycles_of([1, 2, 0, 4, 3, 5]) == ((0, 1, 2), (3, 4), (5,))

    def test_single_cycle_type(self):
        assert cycle_type((1, 2, 3, 4, 5, 0)) == (6,)
        assert cycles_of(()) == () and cycle_type(()) == ()

    def test_rejects_non_bijection(self):
        message = re.escape("not a bijection on 0..2: (0, 0, 1)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            cycles_of([0, 0, 1])
        with pytest.raises(ValueError, match="not a bijection"):
            cycle_type((1, 2))

    @pytest.mark.parametrize("image", [1.0, True])
    def test_rejects_non_integer_image(self, image):
        # [1.0, 0] and [True, 0] sort equal to [0, 1]
        with pytest.raises(ValueError, match=f"^image {image!r} is not an integer$"):
            cycles_of([image, 0])

    def test_cycle_structure_exhaustive_through_eight(self):
        for n in range(9):
            for sigma in itertools.permutations(range(n)):
                cycles = cycles_of(sigma)
                assert sum(len(c) for c in cycles) == n
                assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
                assert cycle_type(sigma) == partition_of(map(len, cycles))
                for gamma in cycles:
                    # the cycle really traces sigma
                    for i, u in enumerate(gamma):
                        assert sigma[u] == gamma[(i + 1) % len(gamma)]

    @given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
    def test_cycles_rebuild_the_permutation(self, images):
        rebuilt = [None] * len(images)
        for cycle in cycles_of(images):
            for i, v in enumerate(cycle):
                rebuilt[v] = cycle[(i + 1) % len(cycle)]
        assert rebuilt == list(images)
