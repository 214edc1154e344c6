"""The public API is the paper's routes, the digraph model, the two bases
and the cap error; the oracles and the index-set helpers are imported
from their modules.  Its values are immutable and picklable."""

import pickle
from fractions import Fraction

import pytest

import redei_berge
from redei_berge import (
    ArcWeights,
    DescentSet,
    Digraph,
    FundamentalQSym,
    PowerSumPolynomial,
)

PUBLIC = [
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


def test_all_lists_exactly_the_public_names():
    assert sorted(redei_berge.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(redei_berge, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from redei_berge import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


# Public attribute names of the two bases and the input types, as the class
# defines them; an alias constructor or an operation that nothing calls
# shows up here first.
CLASS_NAMES = {
    "ArcWeights": ["from_digraph", "from_json", "n", "random", "s", "t", "updated"],
    "DescentSet": ["composition", "members", "n"],
    "Digraph": [
        "arcs",
        "complement",
        "has_arc",
        "ins",
        "is_tournament",
        "is_two_cycle_free",
        "n",
        "rows",
    ],
    "FundamentalQSym": ["coefficient", "n", "terms", "zeta"],
    "PowerSumPolynomial": [
        "antipode",
        "coefficient",
        "degree",
        "omega",
        "scale",
        "terms",
        "to_fundamental",
        "to_json",
        "to_text",
        "zeta",
    ],
}


def test_classes_carry_exactly_the_pinned_public_names():
    for name, expected in CLASS_NAMES.items():
        cls = getattr(redei_berge, name)
        assert sorted(a for a in dir(cls) if not a.startswith("_")) == expected, name


def test_only_power_sums_have_arithmetic_operators():
    operators = {"__add__", "__sub__", "__neg__", "__mul__"}
    assert sorted(operators & set(vars(redei_berge.PowerSumPolynomial))) == [
        "__add__",
        "__neg__",
        "__sub__",
    ]
    assert not operators & set(vars(redei_berge.FundamentalQSym))


VALUES = [
    (Digraph(3, [(0, 1), (1, 1), (2, 2)]), ["n", "rows"]),
    (ArcWeights(2, {(0, 1): Fraction(-1, 2)}), ["n", "_t"]),
    (PowerSumPolynomial({(2, 1): 3, (): 1}), ["terms"]),
    (FundamentalQSym(3, {DescentSet(3, frozenset({1})): 2}), ["n", "terms"]),
    (DescentSet(4, frozenset({1, 3})), ["n", "members"]),
]


@pytest.mark.parametrize(
    "value, fields", VALUES, ids=[type(value).__name__ for value, _ in VALUES]
)
def test_values_are_immutable_and_picklable(value, fields):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(copy, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == copy
    if isinstance(value, ArcWeights):  # its weights are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(copy) == hash(value)
