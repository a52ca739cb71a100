"""Lazy loading: `import qneg` loads no submodule, a `qneg` process loads
only the submodules its command uses, and every public name reads through
its defining module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qneg
import qneg.cli

SRC = str(Path(qneg.__file__).resolve().parent.parent)

PUBLIC = {
    "InvariantError", "LaurentPoly", "CyclotomicModulus", "ZERO", "ONE",
    "cyclotomic", "cyclotomic_poly", "divides", "congruent_mod",
    "Region", "sgn", "region", "qbinom", "qbinom_pascal", "binom", "six_forms",
    "degree_profile",
    "HybridSet", "standard_new_set", "k_subsets", "subset_count", "qbinom_via_subsets",
    "Direction", "NormalSeries", "PowerSeriesInX", "series_mul", "power_xy",
    "pochhammer_expansion", "verify_chu_vandermonde", "freshman_congruence",
    "PadicDigits", "padic_digits", "is_prime",
    "lucas_product", "verify_lucas", "q_lucas_rhs", "verify_q_lucas",
    "apery", "verify_apery_symmetry", "verify_apery_congruence",
    "__version__",
}  # fmt: skip


def python_s(*args):
    """Run a fresh `python -S` (no site hooks) on the package's sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_loads_no_submodule():
    proc = python_s("-c", "import sys, qneg; print(sorted(m for m in sys.modules if 'qneg' in m))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['qneg']\n", "")


def test_verify_symmetry_loads_only_what_it_uses():
    # -X importtime lists on stderr every module the process imports
    proc = python_s("-X", "importtime", "-m", "qneg", "verify", "symmetry")
    assert (proc.returncode, proc.stdout) == (0, "checked 625, passed 625\n")
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()}
    assert {m for m in loaded if m.startswith("qneg.")} == {"qneg.cli", "qneg.laurent", "qneg.qbinom"}
    assert "json" not in loaded and "typing" not in loaded


REFUSAL_PROBE = """
import sys
import qneg.cli
code = qneg.cli.main({argv!r})
print(code, sorted(m for m in sys.modules if m.startswith("qneg.")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "1000000000", "--k", "500000000", "--q1"],
        ["eval", "--n", "1000000", "--k", "500000", "--q1"],
        ["eval", "--n", "1998", "--k", "999"],
        ["table", "--n", "-999..0", "--k", "0..999"],
        ["table", "--n", "0..100000000000000000000", "--k", "0..0"],
        ["expand", "--n", "3", "--mode", "pochhammer", "--trunc", "100000000000000000000"],
        # the other requests that the CI job refuses as processes
        ["qlucas", "--n", "4000", "--k", "2000", "--m", "100000"],
        ["verify", "symmetry", "--n", "3000", "--k", "1500"],
        ["verify", "subsets", "--n", "34", "--k", "17"],
        ["verify", "chu", "--n", "600", "--m", "600", "--k", "300"],
        ["verify", "lucas", "--p", "2", "--n", "20000000", "--k", "10000000"],
        ["verify", "apery", "--n", "0..5000"],
        ["verify", "qlucas", "--m", "2..100000", "--n", "0", "--k", "0"],
        ["verify", "lucas", "--p", "2..100000000000000000000"],
        ["verify", "freshman", "--m", "2..100000000000000000000"],
        ["qlucas", "--n", "1000000999", "--k", "500000499", "--m", "1000"],
    ],
    ids=[
        "eval", "eval-q1", "eval-walk", "table", "table-huge", "expand-huge", "qlucas",
        "symmetry", "subsets", "chu", "lucas", "apery", "qlucas-moduli", "lucas-huge",
        "freshman-huge", "qlucas-factors",
    ],  # fmt: skip
)
def test_a_refused_request_loads_no_library_module(argv):
    # the size guards read every size from the reflections, not from qbinom,
    # and each suite and handler imports the library only after its guards;
    # a --q1 value is refused first by a lower bound on its digits
    proc = python_s("-c", REFUSAL_PROBE.format(argv=argv))
    assert (proc.returncode, proc.stdout) == (0, "2 ['qneg.cli']\n")
    if "--q1" in argv:
        assert proc.stderr.startswith("error: binom(") and "PYTHONINTMAXSTRDIGITS" in proc.stderr
    else:
        assert proc.stderr.startswith("error: the result is too large")


ORDERS = [
    ["laurent", "qbinom", "hybridset", "qseries", "congruence", "apery", "cli"],
    ["cli", "apery", "congruence", "qseries", "hybridset", "qbinom", "laurent"],
    ["congruence", "qbinom", "apery"],
    ["apery", "qbinom"],
    ["qbinom", "apery"],
    ["hybridset", "qseries"],
]

CLASH_PROBE = """
import importlib, sys
for order in {orders!r}:
    for name in [m for m in sys.modules if m == "qneg" or m.startswith("qneg.")]:
        del sys.modules[name]
    for module in order:
        importlib.import_module("qneg." + module)
    import qneg
    import qneg.qbinom as qbinom_name
    from qneg import apery as apery_name
    found = [qneg.qbinom, qneg.apery, qbinom_name, apery_name]
    print(order, [type(x).__name__ for x in found], qbinom_name(4, 2).eval_at_one(), apery_name(3))
"""


def test_clashing_names_stay_the_functions_in_every_import_order():
    # qneg.qbinom and qneg.apery are each a submodule and an exported
    # function; the import system binds a submodule onto the package
    proc = python_s("-c", CLASH_PROBE.format(orders=ORDERS))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(ORDERS)
    for order, line in zip(ORDERS, lines):
        kinds = "['_lru_cache_wrapper', 'function', '_lru_cache_wrapper', 'function']"
        assert line == f"{order} {kinds} 6 1445"


def test_star_import_and_dir_cover_all():
    assert set(qneg.__all__) == PUBLIC and len(qneg.__all__) == len(PUBLIC)
    namespace = {}
    exec("from qneg import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert all(namespace[name] is getattr(qneg, name) for name in PUBLIC)
    assert PUBLIC <= set(dir(qneg))


SUBMODULES = ["laurent", "qbinom", "hybridset", "qseries", "congruence", "apery"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_exports_its_share_of_the_table(name):
    module = importlib.import_module(f"qneg.{name}")
    expected = [public for public, home in qneg._EXPORTS.items() if home == module.__name__]
    assert expected and module.__all__ == expected
    namespace = {}
    exec(f"from qneg.{name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    assert all(namespace[public] is getattr(module, public) for public in expected)


def test_each_name_reads_through_its_defining_module(monkeypatch):
    for name in PUBLIC - {"__version__"}:
        value = getattr(qneg, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("qneg.") and getattr(module, name) is value
        assert name not in vars(qneg)  # no copy to go stale
        patched = object()
        monkeypatch.setattr(module, name, patched)
        assert getattr(qneg, name) is patched and getattr(qneg.cli, name) is patched
        monkeypatch.undo()
        assert getattr(qneg, name) is value and getattr(qneg.cli, name) is value
    assert not isinstance(qneg.qbinom, ModuleType) and not isinstance(qneg.apery, ModuleType)
