"""Exact-arithmetic Redei--Berge symmetric functions of digraphs.

The package computes the Redei--Berge symmetric function by independent
routes (the defining quasisymmetric listing sum versus closed power-sum
formulas), counts Hamiltonian paths and simple cycles, verifies the
classical parity theorems and their mod-4 refinement on small instances by
brute force, and implements the multiparameter deformation.  Everything is
exact: coefficients are arbitrary-precision rationals and counts are big
integers.
"""

from .core import (
    ArcWeights,
    deformed_by_definition,
    deformed_powersum,
    descent_set,
    in_doubled_odd_cone,
    major_index,
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
    HampCount,
    count_hamiltonian_paths,
    count_nontrivial_odd_cycles,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from .kernel import (
    CycleClass,
    DescentSet,
    Permutation,
    all_descent_sets,
    all_permutations,
    is_composition,
    is_partition,
    partition_of,
)
from .limits import CapExceededError
from .oracles import (
    ArcSet,
    count_friendly_listings,
    count_listings_containing,
    count_perms_containing,
    d_cycle_excess,
    d_cycle_permutations,
    friendly_product,
    functional_graph,
    is_arc_set_of_path_cover,
    is_linear,
    is_risky,
    level_subdigraph,
    mixed_cycle_permutations,
    path_cover_of,
    polya_sum,
    signed_linear_sum,
    signed_subset_sum,
    signed_sum_per_perm,
)
from .polynomials import (
    FundamentalQSym,
    PowerSumPolynomial,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSet",
    "ArcWeights",
    "CapExceededError",
    "CycleClass",
    "DescentSet",
    "Digraph",
    "DigraphFormatError",
    "FundamentalQSym",
    "HampCount",
    "Permutation",
    "PowerSumPolynomial",
    "all_descent_sets",
    "all_permutations",
    "count_friendly_listings",
    "count_hamiltonian_paths",
    "count_listings_containing",
    "count_nontrivial_odd_cycles",
    "count_perms_containing",
    "d_cycle_excess",
    "d_cycle_permutations",
    "deformed_by_definition",
    "deformed_powersum",
    "descent_set",
    "enumerate_digraphs",
    "enumerate_tournaments",
    "format_digraph",
    "friendly_product",
    "functional_graph",
    "in_doubled_odd_cone",
    "is_arc_set_of_path_cover",
    "is_composition",
    "is_linear",
    "is_partition",
    "is_risky",
    "level_subdigraph",
    "major_index",
    "mixed_cycle_permutations",
    "parse_digraph",
    "partition_of",
    "path_cover_of",
    "polya_sum",
    "random_digraph",
    "random_tournament",
    "redei_berge_by_definition",
    "redei_berge_powersum",
    "redei_berge_tournament",
    "redei_berge_two_cycle_free",
    "signed_linear_sum",
    "signed_subset_sum",
    "signed_sum_per_perm",
    "verify_berge",
    "verify_mod4",
    "verify_redei",
]
