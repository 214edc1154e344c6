"""Compositions, partitions and descent sets.

Conventions used throughout the package:

- Vertices are the integers 0..n-1.
- Positions inside a listing are 1-based: a descent set of a length-n
  listing is a subset of {1, ..., n-1}.
- A composition is a tuple of positive integers; a partition is a weakly
  decreasing composition (the empty tuple is the partition of 0).
- An integer that a value here is built from (a length, member or part)
  must be a plain ``int``: a bool is refused, and so is a float, which
  would compare, hash and sort as the integer it equals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def _require_int(value: object, what: str) -> None:
    """Refuse anything but a plain ``int`` with a message naming it."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")


def is_partition(parts: Sequence[int]) -> bool:
    """True if every part is a positive integer (bools excluded) and the
    parts weakly decrease."""
    if not all(type(p) is int and p >= 1 for p in parts):
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


@dataclass(frozen=True, slots=True)
class DescentSet:
    """A subset of {1, ..., n-1}, with the ambient n kept explicit.

    These sets index the fundamental quasisymmetric functions and are what
    the digraph descent statistic returns.  They are in bijection with the
    compositions of n: the members are the partial sums of consecutive
    parts.

    >>> DescentSet(6, frozenset({2, 3, 5})).composition()
    (2, 1, 2, 1)
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
