"""The reference checks accept qneg's true outputs and reject corrupted ones."""

import contextlib
import io

import pytest

import qneg
import qneg.cli
from qbench import reference
from qbench.worker import InProcess

BOX = range(-10, 11)
CORRUPTIBLE = [(9, 4), (-6, 3), (-3, -8), (30, 11)]


def test_references_agree_with_qneg_on_a_box():
    for n in BOX:
        for k in BOX:
            value = qneg.qbinom(n, k)
            assert reference.qbinom_error(n, k, value.valuation(), value.coeffs) is None
            assert reference.binom(n, k) == qneg.binom(n, k)
            assert reference.region(n, k) == qneg.region(n, k).value.replace("-", "_")


@pytest.mark.parametrize("n, k", CORRUPTIBLE)
def test_one_corrupted_coefficient_is_rejected(n, k):
    value = qneg.qbinom(n, k)
    for i in (0, len(value.coeffs) // 2, len(value.coeffs) - 1):
        coeffs = list(value.coeffs)
        coeffs[i] += 1
        assert reference.qbinom_error(n, k, value.valuation(), coeffs) is not None


@pytest.mark.parametrize("n, k", CORRUPTIBLE)
def test_a_swap_that_keeps_q_at_1_and_minus_1_is_rejected(n, k):
    value = qneg.qbinom(n, k)
    coeffs = list(value.coeffs)
    coeffs[1] += 1
    coeffs[3] -= 1
    assert reference.qbinom_error(n, k, value.valuation(), coeffs) is not None


def test_non_canonical_and_shifted_values_are_rejected():
    value = qneg.qbinom(-6, 3)
    assert reference.qbinom_error(-6, 3, value.valuation(), value.coeffs + (0,)) is not None
    assert reference.qbinom_error(-6, 3, value.valuation() + 1, value.coeffs) is not None
    assert reference.qbinom_error(5, -2, 0, (1,)) is not None


def test_wrong_verdicts_are_rejected():
    runner = InProcess()
    assert runner.check(("qlucas", -40, 17, 5), True) is None
    assert runner.check(("qlucas", -40, 17, 5), False) is not None
    assert runner.check(("chu", 7, -9, 4), False) is not None
    assert runner.check(("freshman", 11), False) is not None
    assert runner.check(("negctl", -40, 17, 5, 3), False) is None
    assert runner.check(("negctl", -40, 17, 5, 3), True) is not None


def test_negative_controls_really_are_false():
    runner = InProcess()
    for op in [("negctl", -40, 17, 5, 3), ("negctl", 90, 21, 12, -7), ("negctl", -9, -60, 64, 0)]:
        assert runner.check(op, runner(op)) is None


def test_apery_recurrence_matches_the_binomial_sum():
    assert reference.apery_upto(40) == [qneg.apery(n) for n in range(41)]
    runner = InProcess()
    assert runner.check(("apery", 33), qneg.apery(33)) is None
    assert runner.check(("apery", 33), qneg.apery(33) + 1) is not None


def test_parse_poly_reads_the_text_rendering():
    for n in BOX:
        for k in BOX:
            value = qneg.qbinom(n, k)
            assert reference.parse_poly(str(value)) == (value.valuation(), list(value.coeffs))
    for bad in ("1 + 0*q", "q^2 + q", "1*q", "q^1", "2 + q^0"):
        with pytest.raises(ValueError):
            reference.parse_poly(bad)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qneg.cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_check_accepts_true_output_and_rejects_a_corrupted_cell(fmt):
    argv = ("table", "--n", "-4..3", "--k", "-5..2", "--format", fmt)
    out = _cli(argv)
    assert reference.table_error(argv, out) is None
    if fmt == "text":
        corrupted = out.replace("q^-7 + q^-6 + 2*q^-5", "q^-7 + q^-6 + 3*q^-5", 1)
    else:
        corrupted = out.replace('"coefficients": ["1", "1", "2"', '"coefficients": ["1", "1", "3"', 1)
    assert corrupted != out
    assert reference.table_error(argv, corrupted) is not None


def test_verify_lines_match_the_suites_at_their_defaults():
    for suite, line in reference.VERIFY_LINES.items():
        assert _cli(("verify", suite)) == line + "\n"
