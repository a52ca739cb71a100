"""Apery numbers over all integer indices and their supercongruences."""

import functools
import importlib
import math
import random
import threading

import pytest

from qneg.apery import _apery_sum, apery, verify_apery_congruence, verify_apery_symmetry
from qneg.laurent import InvariantError

# the package rebinds the name `qneg.apery` to the function
APERY = importlib.import_module("qneg.apery")


@pytest.fixture(autouse=True)
def cold_index():
    """Hold only the seed pair of the recurrence before and after each test,
    so that no test depends on the indices an earlier one computed."""

    def empty():
        with APERY._LOCK:
            APERY._PAIRS.clear()
            APERY._PAIRS[0] = (1, 1)
            APERY._HELD[:] = [0]

    empty()
    yield
    empty()


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

    monkeypatch.setattr(APERY, "_apery_sum", off_by_one)
    assert not verify_apery_symmetry(7)
    assert calls == [-7]


def test_sum_rejects_a_nonzero_term_outside_its_window(monkeypatch):
    # binomials that never vanish put a term at k = -2, before the window
    monkeypatch.setattr(APERY, "binom", lambda n, k: 1)
    with pytest.raises(InvariantError, match="nonzero Apery term outside window at k=-2"):
        _apery_sum(3)


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


# -- the recurrence resumes from held pairs ----------------------------------

RESUME_INDICES = [-1500, -641, -201, -8, -2, -1, 0, 1, 2, 3, 7, 50, 199, 200, 640, 1000, 1500]


@functools.cache
def cold_apery(n):
    """A(n) from a defining sum, which shares no step with the recurrence."""
    return apery_wide_window(n) if abs(n) <= 200 else _apery_sum(n)


def recurrence_upto(top):
    """A(0), ..., A(top) by the recurrence from A(0), holding nothing."""
    values = [1, 5]
    for m in range(2, top + 1):
        numer = (34 * m**3 - 51 * m**2 + 27 * m - 5) * values[-1] - (m - 1) ** 3 * values[-2]
        values.append(numer // m**3)
    return values[: top + 1]


def assert_index_is_consistent():
    held = APERY._HELD
    assert held == sorted(set(held)) == sorted(APERY._PAIRS)
    values = recurrence_upto(held[-1])
    for m in held:
        assert APERY._PAIRS[m] == (values[m - 1] if m else 1, values[m]), m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resumed_values_in_any_order_are_the_cold_values(seed):
    order = RESUME_INDICES * 2
    random.Random(seed).shuffle(order)
    for n in order:
        assert apery(n) == cold_apery(n), n
    assert APERY._HELD == sorted({n if n >= 0 else -n - 1 for n in RESUME_INDICES})
    assert_index_is_consistent()


def test_a_corrupted_held_pair_fails_the_next_step():
    apery(10)
    prev, cur = APERY._PAIRS[10]
    APERY._PAIRS[10] = prev, cur + 1
    # a held index takes no step, so it returns the held value unchecked
    assert apery(10) == cur + 1
    # the step to 11 divides cur * P(11) + P(11) - 10^3 prev by 11^3, and the
    # first two terms leave no remainder
    assert (34 * 11**3 - 51 * 11**2 + 27 * 11 - 5) % 11**3 != 0
    with pytest.raises(InvariantError, match="m=11"):
        apery(11)
    with pytest.raises(InvariantError, match="m=11"):
        apery(-500)
    assert APERY._HELD == [0, 10]


def test_threads_resuming_interleaved_indices_agree_with_cold_values():
    ladder = sorted(RESUME_INDICES, key=lambda n: n if n >= 0 else -n - 1)
    expected = {n: cold_apery(n) for n in ladder}
    start = threading.Barrier(4)
    results, errors = {}, []

    def worker(t):
        try:
            start.wait()
            for n in ladder[t::4] + ladder[(t + 2) % 4 :: 4][::-1]:
                results[t, n] = apery(n)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 2 * len(ladder)
    for (_, n), value in results.items():
        assert value == expected[n], n
    assert APERY._HELD == sorted({n if n >= 0 else -n - 1 for n in ladder})
    assert_index_is_consistent()
