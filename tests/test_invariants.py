"""Internal consistency checks survive `python -O`."""

import ast
from pathlib import Path

import qneg


def test_invariant_error_is_exported():
    assert issubclass(qneg.InvariantError, ArithmeticError)
    assert "InvariantError" in qneg.__all__


def test_no_assert_statements_in_package():
    # `assert` is stripped under -O; invariants raise InvariantError instead
    sources = sorted(Path(qneg.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert statements in {path.name} at lines {lines}"
