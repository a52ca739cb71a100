"""Internal consistency checks survive `python -O`."""

import ast
import importlib
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


def _names(code):
    """The global and attribute names a code object and its nested ones use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_evaluation_routes_share_no_code_path():
    # the closed forms, the q-Pascal recursion and the subset enumeration
    # cross-check one another only while none of them reads another's
    # region test or values
    closed_forms = importlib.import_module("qneg.qbinom")
    tree = ast.parse(Path(qneg.__file__).with_name("hybridset.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        if "qbinom" in name
    ]
    assert imported == []
    pascal = [closed_forms.qbinom_pascal.__wrapped__]
    pascal += [f for name, f in vars(closed_forms).items() if name.startswith("_pascal_")]
    assert len(pascal) == 3
    for function in pascal:
        shared = _names(function.__code__) & {"region", "qbinom", "binom", "_classical_coeffs"}
        assert not shared, (function.__name__, shared)


def test_folded_chain_reads_no_evaluation_route():
    # freshman's dream checks the closed forms only while its chain, exact
    # or on residues modulo q^m - 1, computes nothing through them
    series = importlib.import_module("qneg.qseries")
    chain = [series._factor_chain, series._xy_exponent, series.freshman_congruence]
    residue = importlib.import_module("qneg.laurent")
    chain += [residue._rotation, residue._annihilates, residue._residue_slots]
    assert len(chain) == 6
    for function in chain:
        shared = _names(function.__code__) & {"region", "qbinom", "binom", "_classical_coeffs"}
        assert not shared, (function.__name__, shared)
