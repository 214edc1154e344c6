"""Exact-arithmetic Redei--Berge symmetric functions of digraphs.

The package computes the Redei--Berge symmetric function by independent
routes (the defining quasisymmetric listing sum versus closed power-sum
formulas), counts Hamiltonian paths and simple cycles, verifies the
classical parity theorems and their mod-4 refinement, and implements the
multiparameter deformation.  Everything is exact: coefficients are
arbitrary-precision rationals and counts are big integers.

Only those routes, the digraph model and the two bases are exported here.
The brute-force oracles, which take permutations as plain image tuples,
are imported from :mod:`redei_berge.oracles` and the index sets of the two
bases (partitions, descent sets) from :mod:`redei_berge.polynomials`.
"""

from .core import (
    ArcWeights,
    deformed_by_definition,
    deformed_powersum,
    descent_set,
    in_doubled_odd_cone,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from .digraph import (
    Digraph,
    DigraphFormatError,
    enumerate_digraphs,
    enumerate_tournaments,
    format_digraph,
    parse_digraph,
    random_digraph,
    random_tournament,
)
from .hamilton import (
    count_hamiltonian_paths,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from .limits import CapExceededError
from .polynomials import DescentSet, FundamentalQSym, PowerSumPolynomial

__version__ = "0.1.0"

__all__ = [
    "ArcWeights",
    "CapExceededError",
    "DescentSet",
    "Digraph",
    "DigraphFormatError",
    "FundamentalQSym",
    "PowerSumPolynomial",
    "count_hamiltonian_paths",
    "deformed_by_definition",
    "deformed_powersum",
    "descent_set",
    "enumerate_digraphs",
    "enumerate_tournaments",
    "format_digraph",
    "in_doubled_odd_cone",
    "parse_digraph",
    "random_digraph",
    "random_tournament",
    "redei_berge_by_definition",
    "redei_berge_powersum",
    "redei_berge_tournament",
    "redei_berge_two_cycle_free",
    "verify_berge",
    "verify_mod4",
    "verify_redei",
]
