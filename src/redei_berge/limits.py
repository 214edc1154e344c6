"""Size caps, one per algorithm, and the one function that enforces them.

Everything in this package is exact, so every entry point whose cost grows
like n!, 2^n, 3^n or 2^(n^2) refuses inputs beyond its algorithm's cap
instead of silently running for hours.  Each cap is checked by
:func:`_check_cap` before any table is built or any instance is listed,
and every refusal states the count, its unit and the cap.
"""

from __future__ import annotations

# n! enumerations of listings or permutations, and the backtracking over
# linear arc subsets (at most A000262(n), 4,596,553 at 9 vertices): the
# oracles and the lemma battery.  9! = 362,880 listings take about a second.
FACTORIAL_CAP = 9

# The cycle-sum table (O(2^n n^2)) and the set-partition sum over it
# (O(3^n)) behind every power-sum, definition and deformed route and the
# odd-cycle count, and the degree of the p-to-L bridge (2^(n-1) descent
# sets).  At 12 vertices the slowest routes, the two deformed ones, take
# about 0.25 s each and 22 MB (2-CPU machine).
CYCLE_SUM_CAP = 12

# Path DP over vertex subsets, one packed int of n fields per subset.  Above
# ~18 vertices its 2^n-entry table dominates memory (about 215 MB at 20
# vertices); 22 is the hard refusal point.
DP_VERTEX_CAP = 22

# Signed sums over the subsets of a finite set (2^size terms).
SUBSET_CAP = 24

# Instance streams: all digraphs or tournaments on n vertices, random
# sweeps, cycle colourings.
ENUMERATION_CAP = 2**24


class CapExceededError(ValueError):
    """Raised when an exhaustive routine is asked for an instance above its cap."""


def _check_cap(count: int, unit: str, cap: int, name: str) -> None:
    """Refuses ``count`` above ``cap``, naming both:
    "<count> <unit> exceeds the <name> cap of <cap>"."""
    if count > cap:
        raise CapExceededError(f"{count} {unit} exceeds the {name} cap of {cap}")


def _check_power_of_two(exponent: int, unit: str, cap: int, name: str) -> None:
    """Refuses 2^exponent above ``cap`` by comparing exponents, so a huge
    count is never built; the count is written out below 2^64 and as
    "2^<exponent>" from there."""
    if exponent >= cap.bit_length():
        count = 1 << exponent if exponent < 64 else f"2^{exponent}"
        raise CapExceededError(f"{count} {unit} exceeds the {name} cap of {cap}")
