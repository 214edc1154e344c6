"""Size caps, one per algorithm, the one function that enforces them, and
the check that a size or label is a plain ``int``.

Everything in this package is exact, so every entry point whose cost grows
like n!, 2^n, 3^n or 2^(n^2) refuses inputs beyond its algorithm's cap
instead of silently running for hours.  Each cap is checked by
:func:`_check_cap` before any table is built or any instance is listed,
and every refusal states the count, its unit and the cap.
"""

from __future__ import annotations

from math import prod

# n! enumerations of listings or permutations, and the backtracking over
# linear arc subsets (at most A000262(n), 4,596,553 at 9 vertices): the
# oracles and the lemma battery, 9! = 362,880 listings per call.
FACTORIAL_CAP = 9

# The cycle-sum table (O(2^n n^2)) and the set-partition sum over it
# (O(3^n)) behind every power-sum, definition and deformed route and the
# odd-cycle oracle, and the degree of the p-to-L bridge (2^(n-1) descent
# sets); at 14 vertices the slowest of them, the deformed routes, take
# about 0.6 s and under 30 MB (BENCH_30.json).
CYCLE_SUM_CAP = 14

# The mod-4 report of `hamps` and `verify mod4`, whose exact count of the
# nontrivial odd cycles runs one flat path table per root, of 2^k fields
# for the k vertices above it.  Above 12 vertices that count would cost
# more than the exact path count of the same tournament, on every
# tournament `hamps` checks: 8.3 against 1.7 ms at 14 vertices (medians
# over 30 random tournaments, BENCH_33.json).
ODD_CYCLE_CAP = 12

# The two path engines.  The exact DP keeps one packed int of
# 2^min(ceil(n/2), 7) fields per (high-half vertex set, vertex), 2^n n
# fields of about log2((n - 1)!) bits in all, of which it frees each set's
# ints after their last reader: above ~18 vertices that table dominates
# memory.  The GF(2) parity table keeps two rows of one 2^n-bit int per
# vertex, the ends and the masks.  22 is the hard refusal point of both.
DP_VERTEX_CAP = 22

# Signed sums over the subsets of a finite set (2^size terms).
SUBSET_CAP = 24

# Instance streams, counted by their own instances: all the digraphs,
# tournaments or two-cycle-free digraphs on n vertices, random sweeps,
# cycle colourings.
ENUMERATION_CAP = 2**24


def _require_int(value: object, what: str) -> None:
    """Refuse anything but a plain ``int`` with a message naming it."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")


class CapExceededError(ValueError):
    """Raised when an exhaustive routine is asked for an instance above its cap."""


def _check_cap(count: int, unit: str, cap: int, name: str) -> None:
    """Refuses ``count`` above ``cap``, naming both:
    "<count> <unit> exceeds the <name> cap of <cap>"."""
    if count > cap:
        raise CapExceededError(f"{count} {unit} exceeds the {name} cap of {cap}")


def _check_power(powers: list[tuple[int, int]], unit: str, cap: int, name: str) -> None:
    """Refuses the product of base^exponent over ``powers`` above ``cap`` by
    bounding its bit length first (base^exponent >= 2^exponent for base
    >= 2), so no count of 2^128 or more is ever built.  A refused count is
    written out below 2^64 and named "<base>^<exponent> * ..." from there;
    every cap is below 2^64."""
    bits = sum(e * (b.bit_length() - 1) for b, e in powers if b > 1)  # 2^bits <= count
    count = prod(b**e for b, e in powers) if bits < 64 else 1 << 64
    if count > cap:
        text = " * ".join(f"{b}^{e}" for b, e in powers) if count >> 64 else count
        raise CapExceededError(f"{text} {unit} exceeds the {name} cap of {cap}")
