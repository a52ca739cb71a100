"""CLI contract: golden text output, JSON schema, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qneg.cli as cli
from qneg.laurent import LaurentPoly
from qneg.qbinom import binom, qbinom


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden eval examples -------------------------------------------------------


def test_eval_golden_laurent(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "-3", "--k", "-5")
    assert code == 0
    assert out == "q^-7 + q^-6 + 2*q^-5 + q^-4 + q^-3\n"


def test_eval_golden_integer(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "-11", "--k", "-19", "--q1")
    assert code == 0
    assert out == "43758\n"


def test_eval_golden_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "5", "--k", "-2")
    assert code == 0
    assert out == "0\n"


def test_eval_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "-3", "--k", "-5", "--format", "json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "qneg/1"
    assert body["command"] == "eval"
    assert LaurentPoly.from_json_dict(body["value"]) == qbinom(-3, -5)


def test_eval_json_q1(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "-11", "--k", "-19", "--q1", "--format", "json"
    )
    body = json.loads(out)
    assert body["value"] == "43758"
    assert body["q1"] is True


# -- table ------------------------------------------------------------------------


def test_table_grid_zeros_match_vanishing(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", "-2..2", "--k", "-2..2", "--q1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["n\\k", "-2", "-1", "0", "1", "2"]
    assert len(lines) == 6
    for row in lines[1:]:
        cells = row.split("\t")
        n = int(cells[0])
        for k, cell in zip(range(-2, 3), cells[1:]):
            assert cell == str(binom(n, k))


def test_table_single_cell_matches_eval(capsys):
    _, table_out, _ = run_cli(capsys, "table", "--n", "-3..-3", "--k", "-5..-5")
    _, eval_out, _ = run_cli(capsys, "eval", "--n", "-3", "--k", "-5")
    assert table_out.strip().split("\n")[1].split("\t")[1] == eval_out.strip()


def test_table_three_laurent_cells(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "-3..-3", "--k", "-5..-3")
    assert code == 0
    row = out.strip().split("\n")[1].split("\t")
    assert row[1:] == [str(qbinom(-3, k)) for k in (-5, -4, -3)]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", "-1..1", "--k", "-1..1", "--format", "json"
    )
    body = json.loads(out)
    assert body["schema"] == "qneg/1"
    assert len(body["cells"]) == 9
    for cell in body["cells"]:
        value = LaurentPoly.from_json_dict(cell["value"])
        assert value == qbinom(cell["n"], cell["k"])


def test_table_into_closed_pipe_exits_zero_silently():
    # like `qneg table ... | head -1`: the reader leaves after one line of
    # about 700 kB, far more than a pipe buffers
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qneg", "table", "--n", "-20..20", "--k", "-20..20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"n\\k\t")
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == 0


def test_table_malformed_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--n", "1..x", "--k", "0..1"])
    assert err.value.code == 2


# -- expand -----------------------------------------------------------------------


def test_expand_from_zero_golden(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--n", "-1", "--mode", "noncommutative-from-zero",
        "--trunc", "4",
    )
    assert code == 0
    assert out == "C(0) = 1\nC(1) = -q^-1\nC(2) = q^-3\nC(3) = -q^-6\n"


def test_expand_pochhammer(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--n", "2", "--mode", "pochhammer", "--trunc", "4"
    )
    assert code == 0
    assert out == "C(0) = 1\nC(1) = 1 + q\nC(2) = q\nC(3) = 0\n"


def test_expand_from_infinity_descends(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--n", "-3", "--mode", "noncommutative-from-infinity",
        "--trunc", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == f"C(-3) = {qbinom(-3, -3)}"
    assert lines[1] == f"C(-4) = {qbinom(-3, -4)}"
    assert lines[2] == f"C(-5) = {qbinom(-3, -5)}"


def test_expand_json(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--n", "-3", "--mode", "pochhammer", "--trunc", "3",
        "--format", "json",
    )
    body = json.loads(out)
    assert body["schema"] == "qneg/1"
    for term in body["terms"]:
        expect = qbinom(-3, term["k"]).shift(term["k"] * (term["k"] - 1) // 2)
        assert LaurentPoly.from_json_dict(term["value"]) == expect


def test_expand_invalid_mode_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "--n", "2", "--mode", "sideways"])
    assert err.value.code == 2


# -- lucas / qlucas / apery ----------------------------------------------------------


def test_lucas_command(capsys):
    code, out, _ = run_cli(capsys, "lucas", "--n", "-11", "--k", "-19", "--p", "7")
    assert code == 0
    assert out == "1\n"


def test_lucas_command_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "lucas", "--n", "1", "--k", "1", "--p", "6")
    assert code == 2
    assert "error" in err


def test_qlucas_command(capsys):
    code, out, _ = run_cli(capsys, "qlucas", "--n", "-4", "--k", "-8", "--m", "3")
    assert code == 0
    assert out == "-2 - 2*q\n"


def test_apery_command(capsys):
    code, out, _ = run_cli(capsys, "apery", "--n", "3", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["value"] == "1445"


# -- verify ------------------------------------------------------------------------


def test_verify_all_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "qlucas", "--m", "3", "--n", "-6..6", "--k", "-6..6"
    )
    assert code == 0
    assert out == "checked 169, passed 169\n"


def test_verify_pascal_reports_skip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "pascal", "--n", "-3..3", "--k", "-3..3"
    )
    assert code == 0
    assert out == "checked 48, passed 48, skipped 1\n"


def test_verify_failure_exit_one(capsys, monkeypatch):
    def broken_suite(ns):
        yield "forced-pass", True
        yield "forced-fail", False

    monkeypatch.setitem(cli.SUITES, "pascal", broken_suite)
    code, out, err = run_cli(capsys, "verify", "pascal")
    assert code == 1
    assert out == "checked 2, passed 1\n"
    assert "FAIL forced-fail" in err


def test_verify_failure_json_lists_cases(capsys, monkeypatch):
    def broken_suite(ns):
        yield "bad-case", False

    monkeypatch.setitem(cli.SUITES, "symmetry", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "symmetry", "--format", "json")
    assert code == 1
    body = json.loads(out)
    assert body["failures"] == ["bad-case"]
    assert body["checked"] == 1 and body["passed"] == 0


def test_verify_unknown_suite_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "freshman", "--m", "2..6", "--format", "json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "qneg/1"
    assert body["suite"] == "freshman"
    assert body["checked"] == body["passed"] == 5
    assert body["failures"] == []


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("symmetry", ["--n", "-4..4", "--k", "-4..4"]),
        ("reflection", ["--n", "-4..4", "--k", "-4..4"]),
        ("qinv", ["--n", "-4..4", "--k", "-4..4"]),
        ("degrees", ["--n", "-4..4", "--k", "-4..4"]),
        ("subsets", ["--n", "-4..4", "--k", "-4..4"]),
        ("chu", ["--n", "-3..3", "--m", "-3..3", "--k", "-3..3"]),
        ("qbt", ["--n", "-3..3", "--trunc", "6"]),
        ("ncqbt", ["--n", "-3..3", "--trunc", "6"]),
        ("lucas", ["--p", "3", "--n", "-8..8", "--k", "-8..8"]),
        ("qlucas", ["--m", "4", "--n", "-5..5", "--k", "-5..5"]),
        ("freshman", ["--m", "2..8"]),
        ("apery", ["--n", "0..6"]),
    ],
)
def test_every_suite_passes_on_small_ranges(capsys, suite, flags):
    code, out, _ = run_cli(capsys, "verify", suite, *flags)
    assert code == 0
    checked, passed = out.split(",")[0], out.split(",")[1]
    assert checked.split()[1] == passed.strip().split()[1]


# -- range parsing --------------------------------------------------------------------


def test_parse_range():
    assert cli.parse_range("-30..30") == (-30, 30)
    assert cli.parse_range("7") == (7, 7)
    assert cli.parse_range("-3..-3") == (-3, -3)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("5..1")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("a..b")
