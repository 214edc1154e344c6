import doctest

import pytest

from redei_berge import core, digraph, hamilton, oracles, polynomials


@pytest.mark.parametrize("module", [digraph, polynomials, core, hamilton, oracles])
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
