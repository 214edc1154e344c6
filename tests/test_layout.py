"""The production routes enumerate no listing or permutation: the n! sums
live only in the oracles."""

import ast
from pathlib import Path

import pytest

import redei_berge

PRODUCTION = ["core.py", "hamilton.py", "polynomials.py"]
ENUMERATORS = {"permutations", "all_permutations"}


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


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_enumerates_no_permutations(module):
    path = Path(redei_berge.__file__).with_name(module)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not names_used(tree) & ENUMERATORS
