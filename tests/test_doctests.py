"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro


@pytest.mark.parametrize(
    "module",
    [repro],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
