"""Every documented example in the package runs as part of the test suite."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import qneg

README = Path(__file__).resolve().parent.parent / "README.md"

# __main__ runs the command line when imported
MODULES = sorted(
    f"qneg.{info.name}" for info in pkgutil.iter_modules(qneg.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_every_documented_example_is_collected():
    finder = doctest.DocTestFinder()
    found = [
        test
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
        if test.examples
    ]
    assert len(found) >= 18  # docstrings with examples when this test was written


def test_readme_examples():
    # a pycon block ends with a blank line, so that doctest stops reading
    # expected output before the closing fence
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
    assert result.attempted >= 3  # the examples when this test was written
