"""CLI contract: golden text output, JSON schema, exit codes."""

import argparse
import json
import math
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


LIMIT = f"the limit is {cli.MAX_WORDS:,})"


def _pair(n, k):
    # the classical [top, j], j <= top - j, that qbinom(n, k) reflects onto
    top, j = (n, k) if n >= 0 else (k - n - 1, k) if k >= 0 else (-k - 1, -n - 1)
    return top, min(j, top - j)


def _coeffs(n, k):
    return len(qbinom(n, k).coeffs)


def _walked(n, k):
    # the cold walk to a value of one-word coefficients: step c = 1..j sums
    # over at most c (top - j) / 2 + c + 1 coefficients, and the value's
    # j (top - j) + 1 coefficients, each held at OBJECT words more; nothing
    # for a zero
    top, j = _pair(n, k)
    size = _coeffs(n, k)
    return j * (j + 1) * (top - j + 2) // 4 + j + size * (1 + cli.OBJECT) if size else 0


def _karatsuba(x, y):
    # a product of integers of x and y words, y >= x: y * x^0.585
    small, large = sorted((x, y))
    return large * math.ceil(small**0.585)


def test_eval_too_large_exits_two_at_once():
    # qbinom(100000, 50000) has 2.5e9 coefficients: without the size guard
    # this process runs for hours
    proc = run_process("eval", "--n", "100000", "--k", "50000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and LIMIT in proc.stderr


def test_verify_qlucas_refuses_a_huge_modulus_at_once():
    # a case counts the m slots that it may fold into: 10^9 words
    argv = ["verify", "qlucas", "--m", "1000000000", "--n", "0", "--k", "0"]
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and LIMIT in proc.stderr


def test_verify_qlucas_modulus_limit(capsys, monkeypatch):
    # one case, its m = 9 slots, the value [0, 0] walked and folded, and
    # the right side [0, 0] walked
    monkeypatch.setattr(cli, "MAX_WORDS", cli.CASE + 9 + _walked(0, 0) + 1 + _walked(0, 0))
    code, out, _ = run_cli(capsys, "verify", "qlucas", "--m", "9", "--n", "0", "--k", "0")
    assert (code, out) == (0, "checked 1, passed 1\n")
    # nine cases are past the limit before a term is read
    code, out, err = run_cli(capsys, "verify", "qlucas", "--m", "2..10", "--n", "0", "--k", "0")
    assert (code, out) == (2, "")
    total = f"{9 * cli.CASE:,} words by estimate; the limit is {cli.MAX_WORDS:,}"
    assert err == f"error: the result is too large ({total})\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--n", "1", "--mode", "noncommutative-from-zero", "--trunc", "100000000"],
        ["expand", "--n", "1", "--mode", "pochhammer", "--trunc", "100000000"],
        ["verify", "qbt", "--n", "1", "--trunc", "100000000"],
        ["verify", "ncqbt", "--n", "1", "--trunc", "100000000"],
        ["verify", "freshman", "--m", "400"],
        ["verify", "freshman", "--m", "2..181"],
    ],
    ids=["expand", "pochhammer", "qbt", "ncqbt", "freshman", "freshman-range"],
)
def test_series_commands_refuse_a_huge_window_at_once(argv):
    # a window of 10**8 entries died with a MemoryError traceback and exit 1
    # under a 1.5 GB address-space limit; the packed chain of m = 400 runs
    # 400 passes over 401 residues of 2,569 words; the moduli 2..181 ran for
    # 66.9 s in all when each built (x+y)^m
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and LIMIT in proc.stderr


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


def _window(n, trunc, chains=1):
    # |n| passes of each chain over the values of its window, none for one
    size = trunc if n < 0 else min(trunc, n + 1)
    return chains * abs(n) * sum(map(_coeffs, [n] * size, range(size))) if size > 1 else 0


def _printed(n, ks):
    # each coefficient of an expand window is written out
    return cli.TEXT * sum(_coeffs(n, k) for k in ks)


def _swept(ns, trunc, chains):
    # each entry a case, and each value walked to
    cases = chains * len(ns) * trunc * cli.CASE
    return cases + sum(_window(n, trunc, chains) + sum(_walked(n, k) for k in range(trunc)) for n in ns)


def _freshman_words(m):
    # m passes over m + 1 residues of m slots of m + m.bit_length() + 2 bits
    return m * (m + 1) * -(-m * (m + m.bit_length() + 2) // 64)


SERIES_SIZES = [
    (
        ["expand", "--n", "-3", "--mode", "noncommutative-from-zero", "--trunc", "4"],
        4 * cli.CASE + _window(-3, 4) + _printed(-3, range(4)),
    ),
    (
        ["expand", "--n", "-3", "--mode", "noncommutative-from-infinity", "--trunc", "4"],
        4 * cli.CASE + _window(-3, 4) + _printed(-3, range(-3, -7, -1)),
    ),
    (
        ["expand", "--n", "5", "--mode", "pochhammer", "--trunc", "9"],
        9 * cli.CASE + _window(5, 9) + _printed(5, range(9)),
    ),
    (["verify", "qbt", "--n", "-2..3", "--trunc", "5"], _swept(range(-2, 4), 5, 1)),
    (["verify", "ncqbt", "--n", "-2..3", "--trunc", "5"], _swept(range(-2, 4), 5, 2)),
    (
        ["verify", "freshman", "--m", "2..10"],
        9 * cli.CASE + sum(map(_freshman_words, range(2, 11))),
    ),
]


@pytest.mark.parametrize(
    "argv,size",
    SERIES_SIZES,
    ids=["from-zero", "from-infinity", "pochhammer", "qbt", "ncqbt", "freshman"],
)
def test_series_size_limit_counts_every_window(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_WORDS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_WORDS", size - 1)
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
    # 2..100000 fold 5e9 slots in all
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and LIMIT in proc.stderr


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
    assert proc.stderr.count("\n") == 1 and LIMIT in proc.stderr


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
    # the walk to [200, 100], about 1e6 words, and binom(13000, 6500), of at
    # most 204 words, each fit, but each of the 10,001 coefficients of their
    # product is written out at (4 + 204)^2 words and TEXT more
    argv = ["qlucas", "--n", "13000200", "--k", "6500100", "--m", "1000"]
    proc = run_process(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the result is too large (434,476,552 words by estimate; "
        f"the limit is {cli.MAX_WORDS:,})\n"
    )


@pytest.mark.parametrize(
    "argv,size",
    [
        # 289 cases, each computing binomials of one word, |n| + |k| <= 16 bits
        (["verify", "lucas", "--p", "3", "--n", "-8..8", "--k", "-8..8"], 289 * (cli.CASE + 1)),
        # 10 values of p are counted, 4 of them prime
        (["verify", "lucas", "--p", "2..11", "--n", "3..5", "--k", "-1..0"], 60 * (cli.CASE + 1)),
        # 6 + 5 cases; the recurrence to A(3), and twice to at most A(25)
        # for each congruence case, whose p^r m sum to 70: 3 + 2 * 70 passes
        # of two integers of two words; and |n| + 5 terms of one word for
        # n = -2..3
        (["verify", "apery", "--n", "-2..3"], 11 * cli.CASE + 2 * 143 * 2 + 7 + 6 + 5 + 6 + 7 + 8),
    ],
    ids=["lucas", "lucas-p-range", "apery"],
)
def test_lucas_and_apery_size_limit_counts(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_WORDS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_WORDS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the result is too large ({size:,} words by estimate; the limit is {size - 1:,})\n"
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


def _chu(triples):
    # each of the |k| + 1 terms of a triple a case, and its product packed in
    # slots of two words, shifted and added into a sum of the slots of
    # [n + m, k]; and the walk to each value of every triple once
    values, total = set(), 0
    for n, m, k in triples:
        js = range(0, k + 1) if k >= 0 else range(-1, k, -1)
        values |= {(n + m, k), *((n, j) for j in js), *((m, k - j) for j in js)}
        total += (abs(k) + 1) * cli.CASE + sum(
            _karatsuba(2 * _coeffs(n, j), 2 * _coeffs(m, k - j)) + 4 * _coeffs(n + m, k) for j in js
        )
    return total + sum(_walked(*value) for value in values)


def _joint(a, b):
    # the coefficients that a sum or difference of a and b writes, if both
    # are nonzero: their joint span
    if not (a.coeffs and b.coeffs):
        return 0
    return max(a.val + len(a.coeffs), b.val + len(b.coeffs)) - min(a.val, b.val)


def _pascal(n, k):
    # the value and its neighbours x and y walked, and the two q-Pascal sums
    # and the differences of [n, k] and x with their shifts by q^k and q^n,
    # each coefficient of one word and OBJECT more
    lhs, x, y = qbinom(n, k), qbinom(n - 1, k - 1), qbinom(n - 1, k)
    sums = _joint(x, y.shift(k)) + _joint(x.shift(n - k), y)
    differences = _joint(lhs, lhs.shift(k)) + _joint(x, x.shift(n))
    walks = _walked(n, k) + _walked(n - 1, k - 1) + _walked(n - 1, k)
    return cli.CASE + walks + (1 + cli.OBJECT) * (sums + differences)


_BOX = [(n, k) for n in range(-2, 4) for k in range(-1, 3)]

BOX_SIZES = [
    (
        ["verify", "symmetry", "--n", "-2..3", "--k", "-1..2"],
        24 * cli.CASE + sum(_walked(n, k) for n, k in _BOX),
    ),
    (
        # 2 x 24 cases of 3 or 4 slots; each value walked, and folded twice;
        # the right sides walk to [n0, k0] for every digit n0, k0 < m
        ["verify", "qlucas", "--m", "3..4", "--n", "-2..3", "--k", "-1..2"],
        48 * cli.CASE + 24 * (3 + 4)
        + sum(_walked(n, k) + 2 * _coeffs(n, k) for n, k in _BOX)
        + sum(_walked(a, b) for m in (3, 4) for a in range(m) for b in range(m)),
    ),
    (
        # each value; the n + 1 rows of qbinom_pascal, of at most n + k + 2
        # cells no larger than it; and its |binom(n, k)| subsets of n + 1
        # words, enumerated twice
        ["verify", "subsets", "--n", "5..6", "--k", "2..3"],
        4 * cli.CASE
        + sum(
            _walked(n, k) + (n + 1) * (n + k + 2) * (_coeffs(n, k) + 1) + 2 * binom(n, k) * (n + 1)
            for n in (5, 6) for k in (2, 3)
        ),
    ),
    (
        ["verify", "chu", "--n", "-2..1", "--m", "-2..-1", "--k", "-2..1"],
        _chu(_CHU),
    ),
    # one value, [7, 4] walked and its 13 coefficients printed, each scaled
    # by binom(1, 1) of one word
    (["qlucas", "--n", "17", "--k", "14", "--m", "10"], cli.CASE + _walked(7, 4) + 1 + 13 * (cli.TEXT + 4)),
    # [1, 1] = 1 scaled by binom(200, 100), of at most 200 bits, 4 words
    (
        ["qlucas", "--n", "401", "--k", "201", "--m", "2"],
        cli.CASE + _walked(1, 1) + 16 + cli.TEXT + 25,
    ),
    (
        ["verify", "pascal", "--n", "-3..3", "--k", "-2..2"],
        sum(_pascal(n, k) for n in range(-3, 4) for k in range(-2, 3)),
    ),
]


def test_qlucas_command_counts_the_product_it_prints(capsys, monkeypatch):
    # [7, 4] has 13 coefficients, each scaled by binom(100, 50), of at most
    # 100 bits, and written out at (1 + 2)^2 words and TEXT more
    argv = ["qlucas", "--n", "1007", "--k", "504", "--m", "10"]
    size = cli.CASE + _walked(7, 4) + 2 * 2 + 13 * (cli.TEXT + 9)
    monkeypatch.setattr(cli, "MAX_WORDS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, f"{qbinom(7, 4) * binom(100, 50)}\n", "")
    monkeypatch.setattr(cli, "MAX_WORDS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: the result is too large ({size:,} words by estimate; the limit is {size - 1:,})\n"


@pytest.mark.parametrize(
    "argv,size",
    BOX_SIZES,
    ids=["box", "qlucas", "subsets", "chu", "qlucas-poly", "qlucas-int", "pascal"],
)
def test_box_size_limit_counts_every_value(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_WORDS", size)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_WORDS", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1


def test_subset_count_stops_at_the_first_value_past_the_limit(capsys, monkeypatch):
    # 4 cases, then the running sum over the box is 4,596, 5,240, ...: the
    # cell (5, 2) walks 16 words and holds 7 coefficients at 4 more, its
    # rows 6 * 9 * 8 and its 10 subsets 2 * 10 * 6, and (5, 3) 16 + 28,
    # 6 * 10 * 8 and 2 * 10 * 6
    monkeypatch.setattr(cli, "MAX_WORDS", 4 * cli.CASE + 1239)
    code, out, err = run_cli(capsys, "verify", "subsets", "--n", "5..6", "--k", "2..3")
    assert (code, out) == (2, "")
    total = f"{4 * cli.CASE + 1240:,} words by estimate; the limit is {4 * cli.CASE + 1239:,}"
    assert err == f"error: the result is too large ({total})\n"


def test_subset_count_is_the_size_of_binom_on_a_box(monkeypatch):
    # the subsets suite charges each (n, k) the C(top, j) subsets of its
    # reflection, of top + 1 words and enumerated twice, and no subset off
    # the classical region, without reading binom: the terms its guard
    # checks, less the same terms with math.comb at 0
    box = [(n, k) for n in range(-9, 10) for k in range(-9, 10)]
    expected = [2 * abs(binom(n, k)) * (_pair(n, k)[0] + 1) for n, k in box]

    def checked_terms():
        terms = []

        def record(work, cases=0):
            terms.extend(work)
            raise ValueError("recorded")

        monkeypatch.setattr(cli, "_check", record)
        with pytest.raises(ValueError, match="recorded"):
            next(cli._suite_subsets(argparse.Namespace(n=(-9, 9), k=(-9, 9))))
        return terms

    charged = checked_terms()
    monkeypatch.setattr(math, "comb", lambda top, j: 0)
    subsets = [a - b for a, b in zip(charged, checked_terms())]
    assert len(charged) == len(box) and subsets == expected
    assert 0 in subsets and len(set(subsets)) > 40


def test_box_yields_the_nested_loop_order():
    ns = argparse.Namespace(n=(-1, 2), k=None)
    assert list(cli._box(ns, 1)) == [(n, k) for n in range(-1, 3) for k in range(-1, 2)]
    ns = argparse.Namespace(n=None, k=(3, 4))
    assert list(cli._box(ns, 2)) == [(n, k) for n in range(-2, 3) for k in (3, 4)]


def test_freshman_admits_the_largest_modulus_that_fits(capsys):
    assert cli.CASE + _freshman_words(369) <= cli.MAX_WORDS < cli.CASE + _freshman_words(370)
    assert run_cli(capsys, "verify", "freshman", "--m", "369") == (0, "checked 1, passed 1\n", "")
    assert run_cli(capsys, "verify", "freshman", "--m", "370")[0] == 2


def test_size_limit_sums_the_cells_of_a_table(capsys, monkeypatch):
    # [-3, -5] = q^-7 [4, 2] has 5 coefficients and [-3, -6] = q^-9 [5, 2]
    # has 7; a value is a case, walked and held, and each coefficient printed
    eval_size = cli.CASE + (2 * 3 * 4 // 4 + 2 + 5) + cli.OBJECT * 5 + cli.TEXT * 5
    monkeypatch.setattr(cli, "MAX_WORDS", eval_size)
    assert run_cli(capsys, "eval", "--n", "-3", "--k", "-5")[0] == 0
    assert run_cli(capsys, "table", "--n", "-3..-3", "--k", "-5..-5")[0] == 0
    code, out, err = run_cli(capsys, "table", "--n", "-3..-3", "--k", "-6..-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large")
    assert run_cli(capsys, "eval", "--n", "4", "--k", "2")[0] == 0  # 5 coefficients
    assert run_cli(capsys, "eval", "--n", "5", "--k", "2")[0] == 2  # 7 coefficients
    # with --q1 a value counts the words of binom(n, k) squared twice, for
    # math.comb and for its text: one word for each of these
    monkeypatch.setattr(cli, "MAX_WORDS", 6 * cli.CASE + 6 * 2)
    assert run_cli(capsys, "table", "--n", "5..6", "--k", "-2..0", "--q1")[0] == 0
    assert run_cli(capsys, "table", "--n", "5..6", "--k", "-3..0", "--q1")[0] == 2
    # binom(200, 100) has at most 200 bits: 4 words
    monkeypatch.setattr(cli, "MAX_WORDS", cli.CASE + 2 * 4 * 4)
    assert run_cli(capsys, "eval", "--n", "200", "--k", "100", "--q1")[:2] == (0, f"{binom(200, 100)}\n")
    monkeypatch.setattr(cli, "MAX_WORDS", cli.CASE + 2 * 4 * 4 - 1)
    assert run_cli(capsys, "eval", "--n", "200", "--k", "100", "--q1")[0] == 2


def test_q1_size_bound_covers_every_value():
    for n in range(-40, 41):
        for k in range(-40, 41):
            _, _, size, words = cli._shape(n, k)
            # the value's coefficient count, and words enough for binom(n, k)
            assert size == len(qbinom(n, k).coeffs)
            assert abs(binom(n, k)).bit_length() < 64 * words


def test_q1_digit_lower_bound_refuses_no_value_that_fits(int_text_limit):
    # at the smallest limit, 640 digits, binom(n, k) is refused before it is
    # computed only if its text is longer, and refused near the diagonal
    int_text_limit(640)
    refused = 0
    for n in range(2000, 2400, 7):
        for k in range(0, n + 1, 9):
            try:
                cli._binom(n, k)
            except ValueError as exc:
                assert "PYTHONINTMAXSTRDIGITS" in str(exc)
                int_text_limit(0)
                assert len(str(binom(n, k))) > 640, (n, k)
                int_text_limit(640)
                refused += 1
    assert refused > 100


def test_eval_q1_past_the_int_text_limit_is_refused_before_binom(capsys, monkeypatch, int_text_limit):
    # binom(10**6, 5 * 10**5) has 301,027 digits; computing it took 9.1 s
    # before its text was refused
    int_text_limit(4300)

    def binom_called(n, k):
        raise AssertionError("binom was called")

    monkeypatch.setattr(sys.modules["qneg.qbinom"], "binom", binom_called)
    code, out, err = run_cli(capsys, "eval", "--n", "1000000", "--k", "500000", "--q1")
    assert (code, out) == (2, "")
    assert err == (
        "error: binom(1000000, 500000) has more than 4,300 digits, the most this "
        "Python writes out (see PYTHONINTMAXSTRDIGITS)\n"
    )


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
    assert run_cli(capsys, "table", "--n", "-40..40", "--k", "-40..40")[0] == 0
    for command in ("eval", "table", "expand"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert f"{cli.MAX_WORDS:,} 64-bit words" in capsys.readouterr().out


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


def test_lucas_command_refuses_a_huge_argument_at_once(capsys, int_text_limit):
    # a divmod of a 166,097-bit n for each of its digits base 2
    int_text_limit(0)
    code, out, err = run_cli(capsys, "lucas", "--n", "1" + "0" * 50000, "--k", "1", "--p", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and LIMIT in err


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
    # 5 s; the recurrence runs 10**9 passes over two integers of at most the
    # 79,500,001 words of 34^(10**9), as in the apery suite
    proc = run_process("apery", "--n", "1000000000", PYTHONINTMAXSTRDIGITS="0")
    assert (proc.returncode, proc.stdout) == (2, "")
    words = 5_088_000_000 // 64 + 1
    assert proc.stderr == (
        f"error: the result is too large ({cli.CASE + 2 * 10**9 * words + words * words:,} words "
        f"by estimate; the limit is {cli.MAX_WORDS:,})\n"
    )


def test_apery_with_no_int_text_limit_refuses_a_runaway_recurrence():
    # A(50000) took 7.0 s with PYTHONINTMAXSTRDIGITS=0; A(20000) 1.1 s
    proc = run_process("apery", "--n", "50000", PYTHONINTMAXSTRDIGITS="0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: the result is too large") and LIMIT in proc.stderr


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


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "-1..-1", "--k", "100000000000..100000000000"],
        ["--n", "100000000000..100000000000", "--k", "100000000000..100000000000"],
    ],
    ids=["neighbour", "cross"],
)
def test_verify_pascal_refuses_a_huge_neighbour_or_factor(capsys, monkeypatch, args):
    # the box value [-1, 10^11] has one coefficient, but its neighbour
    # [-2, 10^11 - 1] has 10^11, and [10^11, 10^11] = 1 less its shift by
    # q^(10^11) spans 10^11 + 1: each died with MemoryError, exit 1 and a
    # traceback, when absorption multiplied by 1 - q^k and 1 - q^n
    monkeypatch.setitem(sys.modules, "qneg.qbinom", None)  # the guard reads no value
    code, out, err = run_cli(capsys, "verify", "pascal", *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1


def test_no_sweep_forms_a_polynomial_product(capsys, monkeypatch):
    # every suite at its defaults, and pascal on values of 97,501
    # coefficients, whose absorption check once multiplied them by 1 - q^k
    # and 1 - q^n; chu compares packed integers
    def refuse(a, b):
        raise AssertionError("a polynomial product was formed")

    monkeypatch.setattr(sys.modules["qneg.laurent"], "_kronecker_mul", refuse)
    runs = [["verify", suite] for suite in cli.SUITES]
    for argv in runs + [["verify", "pascal", "--n", "2000", "--k", "50"]]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and "checked 0," not in out, argv


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
    # the grid has 250,000 cells, within the up-front count of its cases,
    # but its values take about 1e13 words: the sum passes the limit within
    # the first row, so the guard need not size every cell
    calls = []
    walk = cli._walk

    def counted(n, k):
        calls.append((n, k))
        return walk(n, k)

    monkeypatch.setattr(cli, "_walk", counted)
    code, out, err = run_cli(capsys, "table", "--n", "-499..0", "--k", "0..499")
    assert (code, out) == (2, "")
    assert err.startswith("error: the result is too large") and err.count("\n") == 1
    assert LIMIT in err
    assert 0 < len(calls) < 100


def test_a_refused_table_of_too_many_cells_sizes_no_value(capsys, monkeypatch):
    # 1,000,000 cases alone pass the limit
    monkeypatch.setattr(cli, "_walk", None)
    code, out, err = run_cli(capsys, "table", "--n", "-999..0", "--k", "0..999")
    assert (code, out) == (2, "")
    assert err == f"error: the result is too large ({10**6 * cli.CASE:,} words by estimate; {LIMIT}\n"
