"""Apery numbers over all integer indices and their supercongruences."""

import importlib
import math

import pytest

from qneg.apery import apery, verify_apery_congruence, verify_apery_symmetry


def reflected_comb(n, k):
    """Test-local integer binomial for any integers, via explicit reflection."""
    if n >= 0:
        return math.comb(n, k) if 0 <= k <= n else 0
    if k >= 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k <= n:
        return (-1) ** (n - k) * math.comb(-k - 1, -n - 1)
    return 0


def apery_wide_window(n):
    """Brute-force oracle: sum the defining terms over a generous window."""
    return sum(
        reflected_comb(n, k) ** 2 * reflected_comb(n + k, k) ** 2
        for k in range(-abs(n) - 10, abs(n) + 11)
    )


def test_apery_small_values():
    assert apery(0) == 1
    assert apery(1) == 5
    assert apery(2) == 73
    assert apery(-1) == 1


def test_apery_against_wide_window_oracle():
    for n in range(-200, 201):
        assert apery(n) == apery_wide_window(n), n
    assert apery(1000) == apery_wide_window(1000)


def test_apery_positive():
    for n in range(-15, 16):
        assert apery(n) > 0


def test_symmetry_examples():
    assert verify_apery_symmetry(1)
    assert verify_apery_symmetry(5)
    assert verify_apery_symmetry(0)


def test_symmetry_range():
    for n in range(0, 26):
        assert verify_apery_symmetry(n), n


def test_symmetry_checks_the_sum_oracle(monkeypatch):
    # A(-n) must come from the defining sum, not from the recurrence that
    # computes A(n-1); otherwise the check could never fail.
    calls = []

    def off_by_one(n):
        calls.append(n)
        return apery(n) + 1

    # the package rebinds the name `qneg.apery` to the function
    monkeypatch.setattr(importlib.import_module("qneg.apery"), "_apery_sum", off_by_one)
    assert not verify_apery_symmetry(7)
    assert calls == [-7]


def test_congruences():
    assert verify_apery_congruence(5, 1, 1, "coster")  # A(5) = A(1) mod 125
    assert verify_apery_congruence(5, 1, 1, "beukers")  # A(4) = A(0) mod 125
    assert verify_apery_congruence(5, 1, 2, "coster")  # A(10) = A(2) mod 125
    assert verify_apery_congruence(7, 1, 1, "coster")
    assert verify_apery_congruence(7, 1, 1, "beukers")


def test_beukers_is_coster_at_reflected_index():
    # A(5m - 1) = A(m - 1) mod 125 holds iff the Coster form holds at -m,
    # through the symmetry A(-n) = A(n-1).
    for m in range(1, 5):
        beukers = (apery(5 * m - 1) - apery(m - 1)) % 125 == 0
        coster_neg = (apery(-5 * m) - apery(-m)) % 125 == 0
        assert apery(-5 * m) == apery(5 * m - 1)
        assert apery(-m) == apery(m - 1)
        assert beukers == coster_neg
        assert beukers


def test_congruence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_apery_congruence(3, 1, 1, "coster")  # p must be >= 5
    with pytest.raises(ValueError):
        verify_apery_congruence(6, 1, 1, "coster")  # composite
    with pytest.raises(ValueError):
        verify_apery_congruence(5, 0, 1, "coster")
    with pytest.raises(ValueError):
        verify_apery_congruence(5, 1, 0, "beukers")
    with pytest.raises(ValueError):
        verify_apery_congruence(5, 1, 1, "euler")


def test_apery_is_below_34_to_the_n():
    # A(n) <= P_n(3)^2 <= (17 + 12 sqrt 2)^n, and 17 + 12 sqrt 2 < 34: the
    # bound behind the size guard of the apery sweep
    assert apery(0) == 1
    for n in range(1, 600):
        assert apery(n) < 34**n, n
    assert 17 + 12 * math.sqrt(2) < 34 and math.log10(34) < 1.5315


def test_apery_terms_at_minus_n_fit_the_digit_bound():
    # the sum at -n has at most |n| + 1 nonzero terms, each of at most
    # |n| * 1.5315 + 1 digits
    for n in range(-120, 121):
        hi = n - 1 if n > 0 else -n
        terms = [reflected_comb(-n, k) ** 2 * reflected_comb(k - n, k) ** 2 for k in range(hi + 1)]
        assert len(terms) <= abs(n) + 1
        assert max(len(str(t)) for t in terms) <= abs(n) * 15315 // 10000 + 1, n
