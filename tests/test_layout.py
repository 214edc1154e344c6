"""The production routes, the modules they build on and the command line
enumerate no listing or permutation: the n! sums live only in the
oracles, which only the command line imports.  Only ``cli._plan`` reads
the sweep flags.  The cycle-sum engine imports no ``fractions``.  Every
size cap is enforced by the one refusal helper in ``limits``, whose
message names the count and the cap, and the cycle-sum and odd-cycle
caps are each read only by the modules of their own algorithm.  Every
value type is a frozen slotted dataclass, with no hand-written
immutability."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import redei_berge
from redei_berge import ArcWeights, CapExceededError, Digraph
from redei_berge.oracles import (
    count_friendly_listings,
    count_hamiltonian_paths_by_backtracking,
    count_listings_containing,
    count_nontrivial_odd_cycles,
    count_perms_containing,
    cycle_weight_sum,
    d_cycle_permutations,
    deformed_by_listings,
    is_arc_set_of_path_cover,
    mixed_cycle_permutations,
    polya_sum,
    redei_berge_by_listings,
    redei_berge_by_signed_perms,
    signed_linear_sum,
    signed_subset_sum,
    signed_sum_per_perm,
)

MODULES = sorted(p.name for p in Path(redei_berge.__file__).parent.glob("*.py"))

PRODUCTION = ["core.py", "digraph.py", "hamilton.py", "polynomials.py"]
ENUMERATORS = {"permutations"}


def names_used(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


@pytest.mark.parametrize("module", [*PRODUCTION, "cli.py"])
def test_production_module_enumerates_no_permutations(module):
    path = Path(redei_berge.__file__).with_name(module)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not names_used(tree) & ENUMERATORS


HAND_WRITTEN = {"__setattr__", "__delattr__", "__reduce__", "__slots__"}


@pytest.mark.parametrize("module", PRODUCTION)
def test_value_types_are_frozen_slotted_dataclasses(module):
    path = Path(redei_berge.__file__).with_name(module)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {
        node.name if isinstance(node, ast.FunctionDef) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not defined & HAND_WRITTEN
    loaded = importlib.import_module(f"redei_berge.{module[:-3]}")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if issubclass(getattr(loaded, node.name), BaseException):
                continue
            assert [ast.unparse(d) for d in node.decorator_list] == [
                "dataclass(frozen=True, slots=True)"
            ], node.name


def imported_modules(tree: ast.AST) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cli_imports_the_oracles(module):
    path = Path(redei_berge.__file__).with_name(module)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = imported_modules(tree) | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    imports_oracles = any(name.rpartition(".")[2] == "oracles" for name in imported)
    assert imports_oracles == (module == "cli.py")


def test_cli_imports_no_private_name_from_hamilton():
    # the hamps reports are built in hamilton, next to the path engines
    path = Path(redei_berge.__file__).with_name("cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hamilton"
        for alias in node.names
    ]
    assert "count_hamiltonian_paths" in imported
    assert not [name for name in imported if name.startswith("_")]
    builders = {"_berge_report", "_redei_report", "_mod4_report", "_path_parity"}
    assert not names_used(tree) & (builders | {"count_nontrivial_odd_cycles"})


SWEEP_FLAGS = {"exhaustive", "random", "max_n", "seed", "jobs"}


def test_only_the_plan_reads_the_sweep_flags():
    # the sweep's refusals, stream spec, JSON mode and worker count are
    # decided once, in cli._plan
    path = Path(redei_berge.__file__).with_name("cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    readers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in SWEEP_FLAGS
    }
    assert readers == {"_plan"}


def test_cycle_sum_engine_has_no_fractions():
    # rationals are cleared to ints before the engine and divided out after
    path = Path(redei_berge.__file__).with_name("hamilton.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "fractions" not in imported_modules(tree)


def constructs_cap_error(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "CapExceededError"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "CapExceededError"
        )
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("module", MODULES)
def test_only_limits_constructs_the_cap_error(module):
    path = Path(redei_berge.__file__).with_name(module)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert constructs_cap_error(tree) == (module == "limits.py")


# the cycle-sum engine's routes, the p-to-L bridge and the odd-cycle
# oracle, and their verify targets; the mod-4 report and its verify target
CAP_READERS = {
    "CYCLE_SUM_CAP": {"cli.py", "core.py", "limits.py", "oracles.py", "polynomials.py"},
    "ODD_CYCLE_CAP": {"cli.py", "hamilton.py", "limits.py"},
}


@pytest.mark.parametrize("cap", sorted(CAP_READERS))
def test_each_cap_is_read_only_by_its_algorithm(cap):
    readers = set()
    for module in MODULES:
        path = Path(redei_berge.__file__).with_name(module)
        if cap in names_used(ast.parse(path.read_text(encoding="utf-8"))):
            readers.add(module)
    assert readers == CAP_READERS[cap]


SHIFT = [(u + 1) % 25 for u in range(25)]
FACTORIAL = "10 vertices exceeds the factorial cap of 9"
REFUSALS = [
    (is_arc_set_of_path_cover, (Digraph(10),), FACTORIAL),
    (count_listings_containing, (Digraph(10),), FACTORIAL),
    (count_perms_containing, (Digraph(10),), FACTORIAL),
    (count_friendly_listings, (Digraph(10), [1] * 10), FACTORIAL),
    (mixed_cycle_permutations, (Digraph(10),), FACTORIAL),
    (d_cycle_permutations, (Digraph(10),), FACTORIAL),
    (cycle_weight_sum, (10, lambda c: 1), FACTORIAL),
    (redei_berge_by_listings, (Digraph(10),), FACTORIAL),
    (deformed_by_listings, (ArcWeights(10),), FACTORIAL),
    (signed_linear_sum, (Digraph(10).complement(),), FACTORIAL),
    (redei_berge_by_signed_perms, (Digraph(10),), FACTORIAL),
    (
        signed_sum_per_perm,
        (Digraph(25, enumerate(SHIFT)), tuple(SHIFT)),
        "25 arcs exceeds the subset cap of 24",
    ),
    (signed_subset_sum, (25,), "25 set elements exceeds the subset cap of 24"),
    (
        polya_sum,
        (tuple(range(9)),),
        "387420489 cycle colourings exceeds the enumeration cap of 16777216",
    ),
    (
        count_hamiltonian_paths_by_backtracking,
        (Digraph(23),),
        "23 vertices exceeds the path-count cap of 22",
    ),
    (
        count_nontrivial_odd_cycles,
        (Digraph(15),),
        "15 vertices exceeds the cycle-sum cap of 14",
    ),
]


@pytest.mark.parametrize(
    "oracle, args, message", REFUSALS, ids=[case[0].__name__ for case in REFUSALS]
)
def test_oracle_refusal_names_its_count_and_cap(oracle, args, message):
    with pytest.raises(CapExceededError, match=f"^{re.escape(message)}$"):
        oracle(*args)
