"""Digraph model, predicates, generators and the edge-list text format.

A digraph is a vertex count n plus an n x n arc-presence matrix; loops are
allowed and survive complementation.  Arcs are stored as per-row bitmasks
so that predicates reduce to integer bit operations.

Each instance kind is one table of slots, loops or vertex pairs with their
arc choices; the exhaustive and random streams pick one choice per slot.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Sequence

from .limits import DP_VERTEX_CAP, ENUMERATION_CAP, _check_power, _require_int


class DigraphFormatError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class Digraph:
    """Immutable digraph on vertices 0..n-1.

    ``rows[u]`` has bit v set iff (u, v) is an arc, and ``ins[v]`` has bit
    u set iff (u, v) is an arc with u != v: the in-neighbour masks that
    both path engines read, built with ``rows``.  A loop never precedes
    its own vertex, so ``ins`` drops it.

    >>> d = Digraph(3, [(0, 1), (1, 1), (2, 2)])
    >>> d.has_arc(0, 1), d.has_arc(1, 0)
    (True, False)
    >>> sorted(d.complement().arcs())
    [(0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    >>> d.ins, d.complement().ins
    ((0, 1, 0), (6, 4, 3))
    """

    n: int
    rows: tuple[int, ...]
    ins: tuple[int, ...]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        _require_int(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        ins = [0] * n
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:  # bool is refused too
                bad = v if type(u) is int else u
                raise ValueError(
                    f"arc ({u!r}, {v!r}) has a non-integer endpoint {bad!r}"
                )
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            ins[v] |= (u != v) << u  # no loop
        self._fill(n, rows, ins)

    def _fill(self, n: int, rows: Sequence[int], ins: Sequence[int]) -> "Digraph":
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "ins", tuple(ins))
        return self

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in row-major order."""
        for u in range(self.n):
            row = self.rows[u]
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    def complement(self) -> "Digraph":
        """Digraph on the same vertices whose arcs are exactly the non-arcs."""
        full = (1 << self.n) - 1
        rows = [r ^ full for r in self.rows]
        ins = [full ^ i ^ 1 << v for v, i in enumerate(self.ins)]
        return Digraph.__new__(Digraph)._fill(self.n, rows, ins)

    def is_tournament(self) -> bool:
        """No loops, and each unordered pair carries exactly one arc: each
        vertex's out- and in-neighbours split the other vertices."""
        full = (1 << self.n) - 1
        pairs = enumerate(zip(self.rows, self.ins))
        return all(row ^ i == full ^ 1 << u for u, (row, i) in pairs)

    def is_two_cycle_free(self) -> bool:
        """No distinct u, v with both (u, v) and (v, u) present; loops allowed."""
        return not any(row & i for row, i in zip(self.rows, self.ins))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {sorted(self.arcs())!r})"


def _slots(kind: str, n: int) -> list[tuple]:
    """The slots of ``kind`` ("digraph", "tournament" or "two-cycle-free") on
    n vertices, each a loop or vertex pair with its tuple of arc choices
    (None for no arc), in the order both instance streams use:

    - digraphs: the n^2 positions (u, v), row-major, each absent or present;
    - tournaments: the pairs u < v, lexicographic, each v -> u or u -> v;
    - two-cycle-free: the n loops, each absent or present, then the pairs
      u < v, each empty, u -> v or v -> u.

    >>> _slots("tournament", 3)
    [((1, 0), (0, 1)), ((2, 0), (0, 2)), ((2, 1), (1, 2))]
    >>> _slots("two-cycle-free", 2)
    [(None, (0, 0)), (None, (1, 1)), (None, (0, 1), (1, 0))]
    """
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "digraph":
        return [(None, (u, v)) for u in range(n) for v in range(n)]
    if kind == "tournament":
        return [((v, u), (u, v)) for u, v in pairs]
    loops = [(None, (u, u)) for u in range(n)]
    return loops + [(None, (u, v), (v, u)) for u, v in pairs]


def _exhaustive(kind: str, n: int) -> tuple[int, Iterator[tuple]]:
    """The number of digraphs of ``kind`` on n vertices, refused above
    ``ENUMERATION_CAP``, and a stream of every combination of their slot
    choices, the first slot fastest, each listed from the last slot back."""
    _require_int(n, "vertex count")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    npairs = n * (n - 1) // 2
    powers, unit = {
        "digraph": ([(2, n * n)], "digraphs"),
        "tournament": ([(2, npairs)], "tournaments"),
        "two-cycle-free": ([(2, n), (3, npairs)], "two-cycle-free digraphs"),
    }[kind]
    _check_power(powers, f"{unit} on {n} vertices", ENUMERATION_CAP, "enumeration")
    slots = _slots(kind, n)  # product runs its last argument fastest
    return prod(map(len, slots)), itertools.product(*reversed(slots))


def _random(rng: random.Random, kind: str, n: int, arc_probability=0.5) -> list:
    """One choice per slot of ``kind`` on n vertices, in slot order: the
    second of two with the given probability, or any of three uniformly."""
    return [
        slot[rng.random() < arc_probability] if len(slot) == 2 else rng.choice(slot)
        for slot in _slots(kind, n)
    ]


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """All 2^(n^2) digraphs on n vertices, loops allowed, in binary
    counting order.

    The arc positions are ordered row-major; digraph number i contains the
    j-th position iff bit j of i is set.
    """
    yield from (Digraph(n, filter(None, c)) for c in _exhaustive("digraph", n)[1])


def enumerate_tournaments(n: int) -> Iterator[Digraph]:
    """All 2^(n(n-1)/2) tournaments on n vertices, in binary counting order.

    Unordered pairs {u, v} with u < v are ordered lexicographically; bit j
    of the index set means the j-th pair is oriented u -> v, clear means
    v -> u.
    """
    yield from (Digraph(n, filter(None, c)) for c in _exhaustive("tournament", n)[1])


def random_digraph(
    n: int, arc_probability: float = 0.5, seed: int | None = None
) -> Digraph:
    """Digraph with each of the n^2 possible arcs (loops included) present
    independently with the given probability.  Deterministic per seed."""
    _require_int(n, "vertex count")
    if not 0.0 <= arc_probability <= 1.0:
        raise ValueError(f"arc probability {arc_probability} outside [0, 1]")
    choices = _random(random.Random(seed), "digraph", n, arc_probability)
    return Digraph(n, filter(None, choices))


def random_tournament(n: int, seed: int | None = None) -> Digraph:
    """Uniformly random tournament; deterministic per seed."""
    _require_int(n, "vertex count")
    return Digraph(n, filter(None, _random(random.Random(seed), "tournament", n)))


def _number(token: str) -> int | None:
    """The value of a token of ASCII digits, or None for any other token:
    ``int`` alone also takes signs, underscores and non-ASCII digits such
    as "\u0662", and ``str.isdigit`` the last of these."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # longer than int's string-conversion limit
            pass
    return None


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format.

    The first non-comment line is the vertex count n; every following
    non-comment line is an arc ``u v`` with 0 <= u, v < n.  Numbers are
    ASCII digits only.  ``#`` starts a comment, blank lines are ignored,
    duplicate arcs and repeated headers are rejected, and so is a vertex
    count above ``DP_VERTEX_CAP`` (the largest any route accepts), before
    any table is built.  Errors carry the offending line number.
    """
    n: int | None = None
    seen: set[tuple[int, int]] = set()
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise DigraphFormatError(lineno, f"expected vertex count, got {raw!r}")
            n = _number(tokens[0])
            if n is None:
                raise DigraphFormatError(
                    lineno, f"vertex count is not a nonnegative integer: {tokens[0]!r}"
                )
            if n > DP_VERTEX_CAP:
                raise DigraphFormatError(
                    lineno, f"vertex count {n} exceeds the cap of {DP_VERTEX_CAP}"
                )
            continue
        if len(tokens) == 1:
            raise DigraphFormatError(lineno, "duplicate header line")
        if len(tokens) != 2:
            raise DigraphFormatError(lineno, f"expected 'u v', got {raw!r}")
        u, v = _number(tokens[0]), _number(tokens[1])
        if u is None or v is None:
            raise DigraphFormatError(
                lineno, f"arc endpoints are not nonnegative integers: {raw!r}"
            )
        if not (u < n and v < n):
            raise DigraphFormatError(
                lineno, f"arc ({u}, {v}) outside vertex range 0..{n - 1}"
            )
        if (u, v) in seen:
            raise DigraphFormatError(lineno, f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        arcs.append((u, v))
    if n is None:
        raise DigraphFormatError(1, "missing vertex-count header")
    return Digraph(n, arcs)


def format_digraph(d: Digraph) -> str:
    """Canonical edge-list text: header, then arcs in row-major order."""
    lines = [str(d.n)]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"
