"""CLI contract: golden text output, JSON schema, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qneg.cli as cli
from qneg.apery import apery
from qneg.laurent import LaurentPoly
from qneg.qbinom import binom, qbinom


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(cli.__file__).resolve().parent.parent)


def run_process(*argv, **env):
    """`python -m qneg *argv` as a process on this source tree, with the
    given environment variables set, stopped after 10 s."""
    return subprocess.run(
        [sys.executable, "-m", "qneg", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        timeout=10,
    )


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
    env = dict(os.environ, PYTHONPATH=SRC)
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


def test_eval_too_large_exits_two_at_once():
    # qbinom(100000, 50000) has 2.5e9 coefficients: without the size guard
    # this process runs for hours
    proc = run_process("eval", "--n", "100000", "--k", "50000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "1,000,000" in proc.stderr


def test_verify_qlucas_refuses_a_huge_modulus_at_once():
    # Phi_100000000 has 4e7 + 1 coefficients: without the guard this process
    # builds them before it checks anything
    argv = ["verify", "qlucas", "--m", "100000000", "--n", "0", "--k", "0"]
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "1,000,000" in proc.stderr


def test_verify_qlucas_modulus_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 9)
    code, out, _ = run_cli(capsys, "verify", "qlucas", "--m", "9", "--n", "0", "--k", "0")
    assert (code, out) == (0, "checked 1, passed 1\n")
    code, out, err = run_cli(capsys, "verify", "qlucas", "--m", "2..10", "--n", "0", "--k", "0")
    assert (code, out) == (2, "")
    assert err == "error: the result is too large (14 coefficients by estimate; the limit is 9)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--n", "1", "--mode", "noncommutative-from-zero", "--trunc", "100000000"],
        ["expand", "--n", "1", "--mode", "pochhammer", "--trunc", "100000000"],
        ["verify", "qbt", "--n", "1", "--trunc", "100000000"],
        ["verify", "ncqbt", "--n", "1", "--trunc", "100000000"],
        ["verify", "freshman", "--m", "182"],
        ["verify", "freshman", "--m", "2..181"],
    ],
    ids=["expand", "pochhammer", "qbt", "ncqbt", "freshman", "freshman-range"],
)
def test_series_commands_refuse_a_huge_window_at_once(argv):
    # a window of 10**8 entries died with a MemoryError traceback and exit 1
    # under a 1.5 GB address-space limit; (x+y)^182 holds 1,004,914
    # coefficients, and at m = 240 took 14.4 s and 292 MB; the moduli
    # 2..181 each fit but ran for 66.9 s in all
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "1,000,000" in proc.stderr


@pytest.mark.parametrize(
    "argv,out",
    [
        (["expand", "--n", "-1000000000", "--mode", "pochhammer", "--trunc", "1"], "C(0) = 1\n"),
        (
            ["expand", "--n", "1000000000", "--mode", "noncommutative-from-zero", "--trunc", "1"],
            "C(0) = 1\n",
        ),
        (["verify", "qbt", "--n", "-1000000000", "--trunc", "1"], "checked 1, passed 1\n"),
    ],
    ids=["pochhammer", "from-zero", "qbt"],
)
def test_a_series_window_of_one_value_takes_no_pass(argv, out):
    # the window [n, 0] = 1 fits the size guard, and its |n| passes, which
    # changed no entry, ran past 10 s
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def _held(n, ks):
    # the coefficients of the values qbinom(n, k), a zero counting as one
    return sum(len(qbinom(n, k).coeffs) or 1 for k in ks)


def _freshman_size(m):
    # (x+y)^m: sum over k = 0..m of k(m - k) + 1
    return (m**3 - m) // 6 + m + 1


SERIES_SIZES = [
    (
        ["expand", "--n", "-3", "--mode", "noncommutative-from-zero", "--trunc", "4"],
        _held(-3, range(4)),
    ),
    (
        ["expand", "--n", "-3", "--mode", "noncommutative-from-infinity", "--trunc", "4"],
        _held(-3, range(-3, -7, -1)),
    ),
    (["expand", "--n", "5", "--mode", "pochhammer", "--trunc", "9"], _held(5, range(9))),
    (
        ["verify", "qbt", "--n", "-2..3", "--trunc", "5"],
        sum(_held(n, range(5)) for n in range(-2, 4)),
    ),
    (
        ["verify", "ncqbt", "--n", "-2..3", "--trunc", "5"],
        sum(_held(n, range(5)) + _held(n, range(n, n - 5, -1)) for n in range(-2, 4)),
    ),
    (["verify", "freshman", "--m", "2..10"], sum(_held(m, range(11)) for m in range(2, 11))),
]


@pytest.mark.parametrize(
    "argv,size",
    SERIES_SIZES,
    ids=["from-zero", "from-infinity", "pochhammer", "qbt", "ncqbt", "freshman"],
)
def test_series_size_limit_counts_every_window(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["qlucas", "--n", "4000", "--k", "2000", "--m", "100000"],
        ["verify", "symmetry", "--n", "3000", "--k", "1500"],
        ["verify", "subsets", "--n", "34", "--k", "17"],
        ["verify", "chu", "--n", "600", "--m", "600", "--k", "300"],
        ["verify", "qlucas", "--m", "2..100000", "--n", "0", "--k", "0"],
    ],
    ids=["qlucas", "box", "subsets", "chu", "qlucas-moduli"],
)
def test_sweeps_refuse_a_huge_box_at_once(argv):
    # each ran for more than 10 s without its guard: qbinom(4000, 2000) has
    # 4,000,001 coefficients, (34, 17) only 290 but 2,333,606,220 subsets,
    # chu sums 301 products as large as [1200, 300], and the moduli
    # 2..100000 build Phi_m of about 5e9 coefficients in all
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "1,000,000" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lucas", "--p", "2", "--n", "20000000", "--k", "10000000"],
        ["verify", "apery", "--n", "0..5000"],
    ],
    ids=["lucas", "apery"],
)
def test_lucas_and_apery_sweeps_refuse_a_huge_range_at_once(argv):
    # each ran for more than 15 s without its guard: binom(20000000,
    # 10000000) has about 6,000,000 digits, and the sums at -1..-5000 build
    # about 12.5 million terms of up to about 7,650 digits
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "the limit is 1,000,000" in proc.stderr


def test_chu_with_no_cases_does_no_work():
    # k < 0 needs n, m < 0, so this selects no case; it once walked all
    # 10^10 (n, m) pairs
    argv = ["verify", "chu", "--n", "0..100000", "--m", "0..100000", "--k", "-1"]
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "checked 0, passed 0\n", "")


HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "pascal", "--n", f"0..{HUGE}"],
        ["verify", "symmetry", "--k", f"0..{HUGE}"],
        ["verify", "reflection", "--n", f"-{HUGE}..0"],
        ["verify", "qinv", "--k", f"-{HUGE}..{HUGE}"],
        ["verify", "degrees", "--n", f"0..{HUGE}"],
        ["verify", "subsets", "--n", f"0..{HUGE}"],
        ["verify", "qlucas", "--n", f"0..{HUGE}"],
        ["verify", "lucas", "--p", f"2..{HUGE}"],
        ["verify", "lucas", "--n", f"-{HUGE}..0"],
        ["verify", "qbt", "--trunc", HUGE],
        ["verify", "ncqbt", "--n", f"0..{HUGE}"],
        ["verify", "freshman", "--m", f"2..{HUGE}"],
        ["table", "--n", f"0..{HUGE}", "--k", "0..0"],
        ["table", "--n", "0..0", "--k", f"-{HUGE}..0", "--q1"],
        ["expand", "--n", "3", "--mode", "pochhammer", "--trunc", HUGE],
    ],
    ids=[
        "pascal", "symmetry", "reflection", "qinv", "degrees", "subsets", "qlucas",
        "lucas-p", "lucas-n", "qbt", "ncqbt", "freshman", "table", "table-q1", "expand",
    ],
)  # fmt: skip
def test_a_range_of_any_length_is_refused_at_once(capsys, argv):
    # past sys.maxsize, len() of each range raised OverflowError: exit 1
    # with a traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,out,err",
    [
        (
            ["verify", "chu", "--n", f"-{HUGE}..0", "--m", "0..5", "--k", "-1"],
            "checked 0, passed 0\n",
            "",
        ),
        (
            ["verify", "qlucas", "--m", f"-{HUGE}..5", "--n", "0", "--k", "0"],
            "",
            f"error: modulus must be at least 2, got -{HUGE}\n",
        ),
        (
            ["verify", "freshman", "--m", f"-{HUGE}..-3"],
            "",
            f"error: freshman congruence requires m >= 2, got -{HUGE}\n",
        ),
    ],
    ids=["chu", "qlucas", "freshman"],
)
def test_a_huge_range_with_nothing_to_count_ends_at_once(argv, out, err):
    # chu walked every n for an empty range of negative m, the qlucas guard
    # summed negative moduli without end, and freshman's len() overflowed
    proc = run_process(*argv)
    assert (proc.stdout, proc.stderr) == (out, err)
    assert proc.returncode == (2 if err else 0)


def test_qlucas_command_refuses_a_value_whose_factors_each_fit_at_once():
    # the 249,501 coefficients of [999, 499] and the 301,031 digits bounding
    # binom(1000000, 500000) each passed a guard of their own
    argv = ["qlucas", "--n", "1000000999", "--k", "500000499", "--m", "1000"]
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the result is too large (75,107,535,531 digits by estimate; "
        "the limit is 1,000,000)\n"
    )


@pytest.mark.parametrize(
    "argv,size",
    [
        # 289 cases, and binom(n, k) with |n| + |k| <= 16 has at most 5 digits
        (["verify", "lucas", "--p", "3", "--n", "-8..8", "--k", "-8..8"], 289 + 5),
        # 10 values of p are counted, 4 of them prime
        (["verify", "lucas", "--p", "2..11", "--n", "3..5", "--k", "-1..0"], 60 + 2),
        # (|n| + 1) terms of |n| * 1.5315 + 1 digits each, for n = -2..3
        (["verify", "apery", "--n", "-2..3"], 12 + 4 + 1 + 4 + 12 + 20),
    ],
    ids=["lucas", "lucas-p-range", "apery"],
)
def test_lucas_and_apery_size_limit_counts(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the result is too large ({size:,} digits by estimate; the limit is {size - 1:,})\n"
    )


def test_lucas_digit_bound_covers_every_value():
    for n in range(-60, 61):
        for k in range(-60, 61):
            assert len(str(abs(binom(n, k)))) <= (abs(n) + abs(k)) * 30103 // 100000 + 1, (n, k)


@pytest.mark.parametrize("m", ["0", "1", "-3"])
def test_qlucas_command_refuses_a_modulus_below_two(capsys, m):
    # the size guard splits the digits base m, which m = 0 cannot do
    code, out, err = run_cli(capsys, "qlucas", "--n", "5", "--k", "2", "--m", m)
    assert (code, out, err) == (2, "", f"error: modulus must be at least 2, got {m}\n")


_CHU = [(n, m, k) for n in range(-2, 2) for m in range(-2, 0) for k in range(2)]
_CHU += [(n, m, k) for n in range(-2, 0) for m in range(-2, 0) for k in range(-2, 0)]

BOX_SIZES = [
    (
        ["verify", "symmetry", "--n", "-2..3", "--k", "-1..2"],
        sum(_held(n, range(-1, 3)) for n in range(-2, 4)),
    ),
    (
        ["verify", "qlucas", "--m", "3..4", "--n", "-2..3", "--k", "-1..2"],
        sum(_held(n, range(-1, 3)) for n in range(-2, 4)),
    ),
    # 33 coefficients, 55 subsets
    (["verify", "subsets", "--n", "5..6", "--k", "2..3"], 10 + 10 + 15 + 20),
    (
        ["verify", "chu", "--n", "-2..1", "--m", "-2..-1", "--k", "-2..1"],
        sum((abs(k) + 1) * _held(n + m, [k]) for n, m, k in _CHU),
    ),
    # [7, 4] has 13 coefficients and binom(1, 1) one digit
    (["qlucas", "--n", "17", "--k", "14", "--m", "10"], _held(7, [4])),
    # [1, 1] has one coefficient and binom(20, 10) at most 7 digits
    (["qlucas", "--n", "41", "--k", "21", "--m", "2"], 7),
]


def test_qlucas_command_counts_the_product_it_prints(capsys, monkeypatch):
    # [7, 4] has 13 coefficients, each scaled by binom(20, 10), of at most 7
    # digits: 91 digits in all
    argv = ["qlucas", "--n", "207", "--k", "104", "--m", "10"]
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 91)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, f"{qbinom(7, 4) * binom(20, 10)}\n", "")
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 90)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: the result is too large (91 digits by estimate; the limit is 90)\n"


@pytest.mark.parametrize(
    "argv,size",
    BOX_SIZES,
    ids=["box", "qlucas", "subsets", "chu", "qlucas-poly", "qlucas-int"],
)
def test_box_size_limit_counts_every_value(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1


def test_subset_count_stops_at_the_first_value_past_the_limit(capsys, monkeypatch):
    # the running sum over the box is 10, 20, 35, 55
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 34)
    code, out, err = run_cli(capsys, "verify", "subsets", "--n", "5..6", "--k", "2..3")
    assert (code, out) == (2, "")
    assert err == "error: the result is too large (35 subsets by estimate; the limit is 34)\n"


def test_subset_count_is_the_size_of_binom_on_a_box(monkeypatch):
    # the subsets suite counts comb(top, j) from the reflection of each
    # (n, k), or 0 off the classical region, without reading binom
    counted = []

    def recording_check_total(sizes, unit):
        if unit == "subsets":
            counted.extend(sizes)

    monkeypatch.setattr(cli, "_check_total", recording_check_total)
    ns = argparse.Namespace(n=(-9, 9), k=(-9, 9))
    next(cli._suite_subsets(ns))
    assert counted == [abs(binom(n, k)) for n in range(-9, 10) for k in range(-9, 10)]
    assert 0 in counted and len(set(counted)) > 40


def test_box_yields_the_nested_loop_order():
    ns = argparse.Namespace(n=(-1, 2), k=None)
    assert list(cli._box(ns, 1)) == [(n, k) for n in range(-1, 3) for k in range(-1, 2)]
    ns = argparse.Namespace(n=None, k=(3, 4))
    assert list(cli._box(ns, 2)) == [(n, k) for n in range(-2, 3) for k in (3, 4)]


def test_freshman_admits_the_largest_modulus_that_fits(capsys):
    assert _freshman_size(181) <= cli.MAX_COEFFICIENTS < _freshman_size(182)
    assert run_cli(capsys, "verify", "freshman", "--m", "181") == (0, "checked 1, passed 1\n", "")


def test_size_limit_sums_the_cells_of_a_table(capsys, monkeypatch):
    # [-3, -5] has 5 coefficients and [-3, -6] has 7; a --q1 value counts as one
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 5)
    assert run_cli(capsys, "eval", "--n", "-3", "--k", "-5")[0] == 0
    assert run_cli(capsys, "table", "--n", "-3..-3", "--k", "-5..-5")[0] == 0
    code, out, err = run_cli(capsys, "table", "--n", "-3..-3", "--k", "-6..-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large")
    assert run_cli(capsys, "eval", "--n", "4", "--k", "2")[0] == 0  # 5 coefficients
    assert run_cli(capsys, "eval", "--n", "5", "--k", "2")[0] == 2  # 7 coefficients
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 6)
    assert run_cli(capsys, "table", "--n", "5..6", "--k", "-2..0", "--q1")[0] == 0
    assert run_cli(capsys, "table", "--n", "5..6", "--k", "-3..0", "--q1")[0] == 2
    # with --q1 a value counts as a bound on its digits: 7 for binom(20, 10)
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 7)
    assert run_cli(capsys, "eval", "--n", "20", "--k", "10", "--q1")[:2] == (0, "184756\n")
    monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 5)
    assert run_cli(capsys, "eval", "--n", "20", "--k", "10", "--q1")[0] == 2


def test_q1_size_bound_covers_every_value():
    for n in range(-40, 41):
        for k in range(-40, 41):
            size = cli._value_size(n, k, True)
            assert size >= len(str(abs(binom(n, k))))
            # the guard's plain size is the value's coefficient count
            assert cli._value_size(n, k, False) == max(1, len(qbinom(n, k).coeffs))


def test_eval_q1_too_large_exits_two_at_once():
    # binom(10**9, 5 * 10**8) has 3e8 digits: without the size guard this
    # process runs for hours
    argv = ["eval", "--n", "1000000000", "--k", "500000000", "--q1"]
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "digits" in proc.stderr


def test_eval_q1_past_the_int_text_limit_says_so(capsys):
    # binom(20000, 10000) has 6,019 digits, more than CPython's default 4,300
    code, out, err = run_cli(capsys, "eval", "--n", "20000", "--k", "10000", "--q1")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < 6019:
        assert (code, out) == (2, "")
        assert "PYTHONINTMAXSTRDIGITS" in err
    else:
        assert code == 0 and len(out) == 6020


def test_size_limit_is_documented_and_admits_the_readme_table(capsys):
    # README's broken-pipe example prints 859,361 coefficients
    cli._check_size(range(-40, 41), range(-40, 41), q1=False)
    for command in ("eval", "table"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert f"{cli.MAX_COEFFICIENTS:,} coefficients" in capsys.readouterr().out


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
    # each mode's keys are k = 0, 1, ..., or n, n - 1, ... from infinity, in
    # that order, and each value is the closed form from qbinom, checked
    # independently of the window that verify reads
    for mode in cli.EXPAND_MODES:
        for n in range(-6, 7):
            for trunc in (1, 2, 7):
                code, out, _ = run_cli(
                    capsys, "expand", "--n", str(n), "--mode", mode, "--trunc", str(trunc),
                    "--format", "json",
                )
                assert code == 0
                body = json.loads(out)
                assert body["schema"] == "qneg/1"
                from_infinity = mode == "noncommutative-from-infinity"
                keys = range(n, n - trunc, -1) if from_infinity else range(trunc)
                assert [term["k"] for term in body["terms"]] == list(keys), (mode, n, trunc)
                for k, term in zip(keys, body["terms"]):
                    expect = qbinom(n, k)
                    if mode == "pochhammer":
                        expect = expect.shift(k * (k - 1) // 2)
                    assert LaurentPoly.from_json_dict(term["value"]) == expect, (mode, n, trunc)


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


def test_lucas_command_with_a_large_prime_is_quick():
    # trial division up to sqrt(p) ran past 20 s here
    argv = ["lucas", "--n", "-11", "--k", "-19", "--p", "1000000000000000003"]
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "43758\n", "")


def test_lucas_command_refuses_a_modulus_past_the_primality_bound(capsys):
    code, out, err = run_cli(capsys, "lucas", "--n", "1", "--k", "1", "--p", str(2**89 - 1))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: cannot decide whether")


def test_qlucas_command(capsys):
    code, out, _ = run_cli(capsys, "qlucas", "--n", "-4", "--k", "-8", "--m", "3")
    assert code == 0
    assert out == "-2 - 2*q\n"


def test_apery_command(capsys):
    code, out, _ = run_cli(capsys, "apery", "--n", "3", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["value"] == "1445"


def test_apery_past_the_int_text_limit_says_so(capsys):
    # A(2900) has 4,435 digits, more than CPython's default 4,300
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "apery", "--n", "2900", "--format", fmt)
        if 0 < limit < 4435:
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and "PYTHONINTMAXSTRDIGITS" in err
        else:
            value = out.strip() if fmt == "text" else json.loads(out)["value"]
            assert code == 0 and len(value) == 4435


@pytest.fixture
def int_text_limit():
    """Set sys.set_int_max_str_digits for one test, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_apery_far_past_the_int_text_limit_exits_two_at_once(fmt):
    # A(200000) has about 306,000 digits: computing it takes over 20 s and
    # then cannot be written out, so it is refused before it starts
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text limit")
    proc = run_process("apery", "--n", "200000", "--format", fmt, PYTHONINTMAXSTRDIGITS="4300")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: A(200000) has more than 4,300 digits, the most this Python "
        "writes out (see PYTHONINTMAXSTRDIGITS)\n"
    )


def test_apery_without_an_int_text_limit_is_held_to_the_size_limit():
    # with PYTHONINTMAXSTRDIGITS=0 nothing refused A(10**9), and it ran past
    # 5 s; A(m) < 34^m bounds its digits, as in the apery suite
    proc = run_process("apery", "--n", "1000000000", PYTHONINTMAXSTRDIGITS="0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the result is too large (1,531,500,001 digits by estimate; "
        "the limit is 1,000,000)\n"
    )


def test_apery_refuses_no_value_that_fits(capsys, int_text_limit):
    # at the smallest limit, 640 digits, A(n) first overflows it at n = 422;
    # the bound refuses from n = 536 on, and never below
    int_text_limit(0)
    fits = [apery(n) < 10**640 for n in range(600)]
    int_text_limit(640)
    for n in (*range(600), *range(-600, 0, 7)):
        code, out, err = run_cli(capsys, "apery", "--n", str(n))
        if fits[max(n, -n - 1)]:
            assert (code, err) == (0, "") and len(out) <= 641
        else:
            assert (code, out) == (2, "") and f"A({n}) has more than 640 digits" in err


def test_apery_refusal_comes_before_the_computation(capsys, monkeypatch, int_text_limit):
    calls = []
    monkeypatch.setattr(sys.modules["qneg.apery"], "apery", calls.append)
    int_text_limit(640)
    for n in ("536", "-537", "600", str(10**40)):
        assert run_cli(capsys, "apery", "--n", n)[0] == 2
    assert calls == []
    assert run_cli(capsys, "apery", "--n", "535")[0] == 0  # computed, then refused
    assert calls == [535]


@pytest.mark.parametrize("limit,first", [(640, 536), (1000, 835), (4300, 3576), (10000, 8310)])
def test_apery_refuses_from_a_pinned_first_index(capsys, monkeypatch, int_text_limit, limit, first):
    # the integer lower bound on the digits of A(n) refuses from the same
    # first n as the float bound it replaced
    monkeypatch.setattr(sys.modules["qneg.apery"], "apery", lambda n: 0)
    int_text_limit(limit)
    assert run_cli(capsys, "apery", "--n", str(first - 1)) == (0, "0\n", "")
    for n in (first, -first - 1):
        code, out, err = run_cli(capsys, "apery", "--n", str(n))
        assert (code, out) == (2, "") and f"A({n}) has more than {limit:,} digits" in err


def test_apery_with_no_int_text_limit_is_never_refused(capsys, int_text_limit):
    int_text_limit(0)
    code, out, _ = run_cli(capsys, "apery", "--n", "3000")
    assert code == 0 and out.strip() == str(apery(3000))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_qlucas_past_the_int_text_limit_says_so(capsys, int_text_limit, fmt):
    # the one coefficient of [0, 0] * binom(20000, 10000) has 6,019 digits:
    # the value was computed, and then CPython's own message, which names
    # sys.set_int_max_str_digits(), was printed
    argv = ["qlucas", "--n", "60000", "--k", "30000", "--m", "3", "--format", fmt]
    int_text_limit(4300)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: a coefficient of the qlucas value has more than 4,300 digits, "
        "the most this Python writes out (see PYTHONINTMAXSTRDIGITS)\n"
    )
    int_text_limit(0)
    code, out, err = run_cli(capsys, *argv)
    value = out if fmt == "text" else json.loads(out)["value"]["coefficients"][0]
    assert (code, err) == (0, "") and value.strip() == str(binom(20000, 10000))


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


def test_verify_pascal_forms_no_dense_factor_for_a_zero_value(capsys):
    # every value of these boxes is zero, while 1 - q^n or 1 - q^k would
    # hold 10^11 coefficients, or 10^7 for the last, about 160 MB
    boxes = [
        (["--n", "100000000000..100000000011", "--k", "-1633..-1628"], 72),
        (["--n", "5..5", "--k", "100000000000..100000000000"], 1),
        (["--n", "10000000..10000000", "--k", "-1..-1"], 1),
    ]
    for args, count in boxes:
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "verify", "pascal", *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, f"checked {count}, passed {count}\n", ""), args
        assert peak < 4_000_000, (args, peak)


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


SMALL_RANGE_COUNTS = {
    **dict.fromkeys(["symmetry", "reflection", "qinv", "degrees", "subsets"], 81),
    "chu": 223,
    "qbt": 42,
    "ncqbt": 84,
    "lucas": 289,
    "qlucas": 121,
    "freshman": 7,
    "apery": 12,
}


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
    # a sweep that checks nothing must not pass: each checks its exact count
    count = SMALL_RANGE_COUNTS[suite]
    assert run_cli(capsys, "verify", suite, *flags) == (0, f"checked {count}, passed {count}\n", "")


def test_series_suites_keep_their_case_labels():
    # a failure names its case: for each n, the window from zero, then the
    # window from infinity, each labelled with its own direction
    ns = argparse.Namespace(n=(-1, 0), trunc=2)
    assert [case for case, _ in cli.SUITES["qbt"](ns)] == [
        "qbt n=-1 k=0", "qbt n=-1 k=1", "qbt n=0 k=0", "qbt n=0 k=1",
    ]
    assert [case for case, _ in cli.SUITES["ncqbt"](ns)] == [
        "ncqbt zero n=-1 k=0", "ncqbt zero n=-1 k=1", "ncqbt inf n=-1 k=-1", "ncqbt inf n=-1 k=-2",
        "ncqbt zero n=0 k=0", "ncqbt zero n=0 k=1", "ncqbt inf n=0 k=0", "ncqbt inf n=0 k=-1",
    ]


@pytest.mark.parametrize("suite", ["qbt", "ncqbt", "freshman"])
@pytest.mark.parametrize("trunc", ["0", "-3"])
def test_verify_truncation_below_one_is_usage_error(capsys, suite, trunc):
    # a zero once ran the sweep at the default truncation
    code, out, err = run_cli(capsys, "verify", suite, "--trunc", trunc)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "--trunc" in err


# -- range parsing --------------------------------------------------------------------


def test_negative_ranges_parse_spaced_or_joined(capsys):
    spaced = run_cli(capsys, "table", "--n", "-2..2", "--k", "-2..2")
    joined = run_cli(capsys, "table", "--n=-2..2", "--k=-2..2")
    assert spaced == joined and spaced[0] == 0
    assert spaced[1].splitlines()[0] == "n\\k\t-2\t-1\t0\t1\t2"
    code, out, _ = run_cli(capsys, "verify", "lucas", "--p", "3", "--n", "-4", "--k", "-4..-1")
    assert (code, out) == (0, "checked 4, passed 4\n")


def test_negative_option_values_stay_values_or_errors(capsys):
    assert run_cli(capsys, "eval", "--n", "-3", "--k", "-5")[:2] == (
        0,
        "q^-7 + q^-6 + 2*q^-5 + q^-4 + q^-3\n",
    )
    for argv in (
        ["eval", "--n", "-x", "--k", "1"],
        ["table", "--n", "-x..2", "--k", "0..1"],
        ["table", "--n", "-2..x", "--k", "0..1"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_import_leaves_dataclasses_unloaded():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize, and
    # `typing` costs about 17 ms cold, which every qneg process would pay
    # for; -S keeps site hooks out of the count.  The star import loads
    # every submodule.
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = (
        "import sys, qneg.cli; from qneg import *; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_parse_range():
    assert cli.parse_range("-30..30") == (-30, 30)
    assert cli.parse_range("7") == (7, 7)
    assert cli.parse_range("-3..-3") == (-3, -3)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("5..1")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_range("a..b")


# -- exact JSON lines ---------------------------------------------------------------

GOLDEN_JSON = [
    (
        ["eval", "--n", "-3", "--k", "-5"],
        '{"schema": "qneg/1", "command": "eval", "n": -3, "k": -5, "q1": false, '
        '"value": {"valuation": -7, "coefficients": ["1", "1", "2", "1", "1"]}}',
    ),
    (
        ["table", "--n", "-2..-1", "--k", "-1..0", "--q1"],
        '{"schema": "qneg/1", "command": "table", "q1": true, "cells": ['
        '{"n": -2, "k": -1, "value": "0"}, {"n": -2, "k": 0, "value": "1"}, '
        '{"n": -1, "k": -1, "value": "1"}, {"n": -1, "k": 0, "value": "1"}]}',
    ),
    (
        ["expand", "--n", "2", "--mode", "pochhammer", "--trunc", "3"],
        '{"schema": "qneg/1", "command": "expand", "n": 2, "mode": "pochhammer", '
        '"truncation": 3, "terms": ['
        '{"k": 0, "value": {"valuation": 0, "coefficients": ["1"]}}, '
        '{"k": 1, "value": {"valuation": 0, "coefficients": ["1", "1"]}}, '
        '{"k": 2, "value": {"valuation": 1, "coefficients": ["1"]}}]}',
    ),
    (
        ["lucas", "--n", "-11", "--k", "-19", "--p", "7"],
        '{"schema": "qneg/1", "command": "lucas", "n": -11, "k": -19, "p": 7, "residue": 1}',
    ),
    (
        ["qlucas", "--n", "-4", "--k", "-8", "--m", "3"],
        '{"schema": "qneg/1", "command": "qlucas", "n": -4, "k": -8, "m": 3, '
        '"value": {"valuation": 0, "coefficients": ["-2", "-2"]}}',
    ),
    (
        ["apery", "--n", "3"],
        '{"schema": "qneg/1", "command": "apery", "n": 3, "value": "1445"}',
    ),
    (
        ["verify", "pascal", "--n", "-1..1", "--k", "-1..1"],
        '{"schema": "qneg/1", "command": "verify", "suite": "pascal", '
        '"checked": 8, "passed": 8, "skipped": 1, "failures": []}',
    ),
]


@pytest.mark.parametrize("argv,line", GOLDEN_JSON, ids=[argv[0] for argv, _ in GOLDEN_JSON])
def test_json_line_is_pinned(capsys, argv, line):
    # key order and value types: ints stay ints, big integers and
    # coefficients are decimal strings
    assert run_cli(capsys, *argv, "--format", "json") == (0, line + "\n", "")



def test_size_guard_stops_at_the_first_value_past_the_limit(capsys, monkeypatch):
    # the grid has 1,000,000 cells, within the up-front cell count, but its
    # values hold about 2.5e11 coefficients: the sum passes the limit within
    # the first row, so the guard need not size every cell
    calls = []
    value_size = cli._value_size

    def counted(n, k, q1):
        calls.append((n, k))
        return value_size(n, k, q1)

    monkeypatch.setattr(cli, "_value_size", counted)
    code, out, err = run_cli(capsys, "table", "--n", "-999..0", "--k", "0..999")
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1
    assert "the limit is 1,000,000" in err
    assert 0 < len(calls) < 100
