"""Compositions, partitions, descent sets, permutations and cycle classes.

Conventions used throughout the package:

- Vertices are the integers 0..n-1.
- Positions inside a listing are 1-based: a descent set of a length-n
  listing is a subset of {1, ..., n-1}.
- A composition is a tuple of positive integers; a partition is a weakly
  decreasing composition (the empty tuple is the partition of 0).
- A cycle class is a rotation-equivalence class of a nonempty tuple of
  distinct vertices, stored as the unique rotation with its minimal
  entry first.
- An integer that a value here is built from (a length, member, part,
  entry or image) must be a plain ``int``: a bool is refused, and so is a
  float, which would compare, hash and sort as the integer it equals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def _require_int(value: object, what: str) -> None:
    """Refuse anything but a plain ``int`` with a message naming it."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")


def is_composition(parts: Sequence[int]) -> bool:
    """True if every part is a positive integer (bools excluded)."""
    return all(type(p) is int and p >= 1 for p in parts)


def is_partition(parts: Sequence[int]) -> bool:
    """True if the parts are positive and weakly decreasing."""
    if not is_composition(parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def partition_of(lengths: Iterable[int]) -> tuple[int, ...]:
    """Sort a multiset of positive integers into a canonical partition.

    >>> partition_of([1, 3, 2, 2])
    (3, 2, 2, 1)
    """
    parts = tuple(sorted(lengths, reverse=True))
    if not is_partition(parts):
        raise ValueError(f"not positive integers: {parts!r}")
    return parts


@dataclass(frozen=True)
class DescentSet:
    """A subset of {1, ..., n-1}, with the ambient n kept explicit.

    These sets index the fundamental quasisymmetric functions and are what
    the digraph descent statistic returns.  They are in bijection with the
    compositions of n: the members are the partial sums of consecutive
    parts.

    >>> DescentSet(6, frozenset({2, 3, 5})).composition()
    (2, 1, 2, 1)
    >>> DescentSet.from_composition((2, 1, 2, 1))
    DescentSet(n=6, members=frozenset({2, 3, 5}))
    """

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        _require_int(self.n, "length")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            _require_int(m, "member")
            if not 1 <= m <= self.n - 1:
                raise ValueError(f"member {m} outside 1..{self.n - 1}")

    @classmethod
    def from_composition(cls, parts: Sequence[int]) -> "DescentSet":
        """Inverse of :meth:`composition`."""
        if not is_composition(parts):
            raise ValueError(f"not a composition: {parts!r}")
        cuts = list(itertools.accumulate(parts))
        n = cuts[-1] if cuts else 0
        return cls(n, frozenset(cuts[:-1]))

    def composition(self) -> tuple[int, ...]:
        """Consecutive differences of {0} | members | {n}, a composition of n."""
        if self.n == 0:
            return ()
        cuts = [0, *sorted(self.members), self.n]
        return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))

    def __contains__(self, position: int) -> bool:
        return position in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))


def all_descent_sets(n: int) -> Iterator[DescentSet]:
    """All 2^(n-1) descent sets for listings of length n."""
    positions = range(1, n)
    for r in range(len(positions) + 1):
        for combo in itertools.combinations(positions, r):
            yield DescentSet(n, frozenset(combo))


class CycleClass:
    """Rotation-equivalence class of a nonempty tuple of distinct vertices.

    The stored representative is rotated so its minimal entry comes first,
    which makes classes hashable and directly comparable.

    >>> CycleClass((3, 1, 4)) == CycleClass((4, 3, 1))
    True
    >>> CycleClass((3, 1, 4)).reversal()
    CycleClass((1, 3, 4))
    """

    __slots__ = ("verts",)

    def __init__(self, verts: Sequence[int]):
        verts = tuple(verts)
        if not verts:
            raise ValueError("a cycle class is nonempty")
        for v in verts:
            _require_int(v, "entry")
        if len(set(verts)) != len(verts):
            raise ValueError(f"entries must be distinct: {verts!r}")
        k = verts.index(min(verts))
        object.__setattr__(self, "verts", verts[k:] + verts[:k])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycleClass is immutable")

    def __len__(self) -> int:
        return len(self.verts)

    @property
    def is_nontrivial(self) -> bool:
        return len(self.verts) > 1

    def reversal(self) -> "CycleClass":
        """The class of the reversed tuple; an involution."""
        return CycleClass(self.verts[::-1])

    def carcs(self) -> frozenset[tuple[int, int]]:
        """Cyclic arc set: consecutive pairs, wrapping around.

        A singleton class (v,) has the single cyclic arc (v, v).
        """
        k = len(self.verts)
        return frozenset(
            (self.verts[i], self.verts[(i + 1) % k]) for i in range(k)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleClass) and self.verts == other.verts

    def __hash__(self) -> int:
        return hash(("CycleClass", self.verts))

    def __repr__(self) -> str:
        return f"CycleClass({self.verts!r})"


class Permutation:
    """A permutation of {0, ..., n-1} in word form.

    ``images[v]`` is the image of v.  The cycle decomposition is computed
    once and cached; cycles are reported as :class:`CycleClass` values
    ordered by their minimal entry.

    >>> w0 = Permutation([6, 5, 4, 3, 2, 1, 0])   # i -> 6 - i
    >>> [c.verts for c in w0.cycles]
    [(0, 6), (1, 5), (2, 4), (3,)]
    >>> w0.cycle_type
    (2, 2, 2, 1)
    """

    __slots__ = ("images", "_cycles")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        for v in images:
            _require_int(v, "image")
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_cycles", None)

    def __setattr__(self, name: str, value: object) -> None:
        if name == "_cycles" and getattr(self, name, None) is None:
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation that cyclically shifts each given tuple.

        Vertices not mentioned are fixed.

        >>> Permutation.from_cycles(4, [(0, 2, 1)]).images
        (2, 0, 1, 3)
        """
        images = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for v in cyc:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} outside 0..{n - 1}")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two cycles")
                seen.add(v)
            for i, v in enumerate(cyc):
                images[v] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def cycles(self) -> tuple[CycleClass, ...]:
        if self._cycles is None:
            cycles = []
            seen = [False] * self.n
            for start in range(self.n):
                if seen[start]:
                    continue
                orbit = [start]
                seen[start] = True
                v = self.images[start]
                while v != start:
                    orbit.append(v)
                    seen[v] = True
                    v = self.images[v]
                cycles.append(CycleClass(orbit))
            self._cycles = tuple(cycles)
        return self._cycles

    @property
    def cycle_type(self) -> tuple[int, ...]:
        """Partition of n recording the cycle lengths."""
        return partition_of(len(c) for c in self.cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(("Permutation", self.images))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of {0, ..., n-1}, in lexicographic word order."""
    for images in itertools.permutations(range(n)):
        yield Permutation(images)
