"""Size caps for the exhaustive routines.

Everything in this package is exact and enumerative, so every entry point
that scales like n!, 2^|A| or 2^(n^2) refuses inputs beyond a cap instead
of silently running forever.  The caps are generous for desk-scale work.
"""

from __future__ import annotations

# Listing sweeps (n! instances) and the power-sum routes.
FACTORIAL_CAP = 9

# Bitmask DP over (subset, last vertex) states.  Above ~18 vertices the
# flat DP table dominates memory; 22 is the hard refusal point.
DP_VERTEX_CAP = 22

# Odd-cycle counting from the per-subset cycle-sum table (2^n entries).
CYCLE_ENUM_CAP = 12

# Signed sums over subsets of a finite set.
SUBSET_CAP = 24

# Digraph / tournament enumeration streams.
ENUMERATION_CAP = 2**24


class CapExceededError(ValueError):
    """Raised when an exhaustive routine is asked for an instance above its cap."""
