"""q-binomial coefficients: regions, closed forms, Pascal strategy, forms."""

import functools
import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qneg.laurent import ONE, ZERO, InvariantError, LaurentPoly
from qneg.qbinom import (
    Region,
    _check_at_plus_minus_one,
    _classical_coeffs,
    binom,
    degree_profile,
    qbinom,
    qbinom_pascal,
    region,
    sgn,
    six_forms,
)

BOX = range(-8, 9)


def L(terms):
    return LaurentPoly.from_terms(terms)


def classical_by_subsets(n, k):
    """Independent oracle for 0 <= k <= n: sum q^(sum S - k(k-1)/2) over
    k-subsets S of {0..n-1}."""
    weights = {}
    for subset in itertools.combinations(range(n), k):
        e = sum(subset) - k * (k - 1) // 2
        weights[e] = weights.get(e, 0) + 1
    return LaurentPoly.from_terms(weights)


# -- sgn and region -----------------------------------------------------------


def test_sgn():
    assert sgn(0) == 1
    assert sgn(5) == 1
    assert sgn(-3) == -1


def test_region_examples():
    assert region(3, 2) is Region.CLASSICAL
    assert region(-3, 2) is Region.NEGATIVE_N
    assert region(-3, -2) is Region.VANISHING
    assert region(-3, -3) is Region.DOUBLE_NEGATIVE
    assert region(5, -2) is Region.VANISHING
    assert region(2, 5) is Region.VANISHING


def test_region_partitions_the_plane():
    for n in BOX:
        for k in BOX:
            reg = region(n, k)
            classical = 0 <= k <= n
            negative_n = n < 0 <= k
            double_negative = k <= n < 0
            assert [classical, negative_n, double_negative].count(True) <= 1
            if classical:
                assert reg is Region.CLASSICAL
            elif negative_n:
                assert reg is Region.NEGATIVE_N
            elif double_negative:
                assert reg is Region.DOUBLE_NEGATIVE
            else:
                assert reg is Region.VANISHING
                assert (k > n >= 0) or (n >= 0 > k) or (0 > k > n)


# -- golden values ------------------------------------------------------------


def test_qbinom_golden_values():
    expected = L({-7: 1, -6: 1, -5: 2, -4: 1, -3: 1})
    assert qbinom(-3, -5) == expected
    assert qbinom(-3, 2) == expected
    assert qbinom(-3, -4) == L({-3: -1, -2: -1, -1: -1})
    for n in (-4, 0, 7):
        assert qbinom(n, 0) == ONE
    assert qbinom(5, -2) == ZERO
    assert qbinom(-1, 3) == L({-6: -1})


def test_row_minus_one_family():
    for k in range(-6, 7):
        sign = (-1 if k % 2 else 1) * sgn(k)
        assert qbinom(-1, k) == LaurentPoly.q_power(-k * (k + 1) // 2, sign)


def test_classical_region_against_subset_oracle():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qbinom(n, k) == classical_by_subsets(n, k)


def test_vanishing_exactly_on_vanishing_region():
    for n in BOX:
        for k in BOX:
            assert qbinom(n, k).is_zero() == (region(n, k) is Region.VANISHING)


# -- Pascal strategy ------------------------------------------------------------


def test_pascal_textbook_row():
    assert qbinom_pascal(4, 2) == L({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_pascal_seed_corner():
    assert qbinom_pascal(0, 0) == ONE


def test_pascal_cross_strategy_example():
    assert qbinom_pascal(-3, -5) == qbinom(-3, -5)


def test_strategy_agreement_on_box():
    for n in BOX:
        for k in BOX:
            assert qbinom_pascal(n, k) == qbinom(n, k), (n, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
@example(40, 20)  # classical
@example(-39, 2)  # negative n
@example(-37, -39)  # double negative
@example(-20, -10)  # vanishing
def test_strategy_agreement_beyond_the_box(n, k):
    assert qbinom_pascal.__wrapped__(n, k) == qbinom(n, k)


@pytest.mark.parametrize(
    "n, k, bound",
    [(40, 2, 2_500), (40, 38, 2_500), (-39, 2, 2_500), (-37, -39, 2_500), (40, 20, 50_000)],
)
def test_pascal_rows_hold_only_the_cells_the_target_reads(monkeypatch, n, k, bound):
    # the coefficients that the program's sums and differences produce; the
    # full triangle, or a rectangle over the spans of n and k, would produce
    # 102,637 to 112,750 at these shapes
    expect, merge, produced = qbinom(n, k), LaurentPoly._merge, []

    def counted(self, other, op):
        out = merge(self, other, op)
        produced.append(len(out.coeffs))
        return out

    monkeypatch.setattr(LaurentPoly, "_merge", counted)
    value = qbinom_pascal.__wrapped__(n, k)
    monkeypatch.undo()
    assert value == expect
    assert 0 < sum(produced) <= bound


def test_pascal_corner_check_runs_on_every_classical_row(monkeypatch):
    # the corner C(m, m) = C(m-1, m-1) + q^m * 0 is the program's only sum
    # with a zero term; one wrong corner, in any row, raises whatever k is
    add, n = LaurentPoly.__add__, 7
    for k in range(n + 1):
        for row in range(1, n + 1):
            corners = itertools.count(1)

            def corner_wrong_in_row(self, other):
                total = add(self, other)
                return add(total, 1) if not other.coeffs and next(corners) == row else total

            monkeypatch.setattr(LaurentPoly, "__add__", corner_wrong_in_row)
            with pytest.raises(InvariantError, match="derived corner disagrees"):
                qbinom_pascal.__wrapped__(n, k)


def test_pascal_seed_check_runs_on_every_negative_row(monkeypatch):
    # C(m, 0) = q^0 * (C(m+1, 0) - C(m, -1)) is the program's only shift by
    # 0, once in each row m <= -2; one wrong C(m, 0), in any such row, raises
    # whatever k is
    shift, n = LaurentPoly.shift, -7
    for k in range(n - 2, 4):
        for row in range(1, -n):
            seeds = itertools.count(1)

            def seed_wrong_in_row(self, e):
                moved = shift(self, e)
                return moved + 1 if e == 0 and next(seeds) == row else moved

            monkeypatch.setattr(LaurentPoly, "shift", seed_wrong_in_row)
            with pytest.raises(InvariantError, match=r"derived C\(n,0\) disagrees"):
                qbinom_pascal.__wrapped__(n, k)


def test_cache_safe_under_concurrent_fill():
    import threading

    qbinom.cache_clear()
    results = []

    def worker():
        results.append([qbinom(n, k) for n in range(-9, 10) for k in range(-9, 10)])

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


# -- classical kernel -----------------------------------------------------------


def classical_coeffs_loop(n, k):
    """The per-coefficient kernel the C-level one replaced, kept verbatim as
    an oracle: the same product and incremental division, one Python
    statement per coefficient."""
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        top = n - k + i
        # multiply by (1 - q^top)
        prod = coeffs + [0] * top
        for j in range(len(coeffs)):
            prod[j + top] -= coeffs[j]
        # divide by (1 - q^i): ascending synthetic division g[j] = f[j] + g[j-i]
        width = len(prod) - i
        out = [0] * width
        for j in range(len(prod)):
            c = prod[j] + (out[j - i] if j >= i else 0)
            if j < width:
                out[j] = c
            else:
                assert c == 0, "Gaussian binomial division left a remainder"
        coeffs = out
    return coeffs


def classical_coeffs_slices(n, k):
    """The whole-length slice kernel the half-length one replaced, kept
    verbatim as an oracle: the full product of every step is built and each
    division is checked for a zero remainder."""
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        top = n - k + i
        # multiply by (1 - q^top)
        prod = coeffs + [0] * top
        prod[top:] = map(operator.sub, prod[top:], coeffs)
        # divide by (1 - q^i): the ascending recurrence g[j] = f[j] + g[j-i]
        # is a running sum along each residue class of j mod i
        for r in range(i):
            prod[r::i] = itertools.accumulate(prod[r::i])
        width = len(prod) - i
        if any(prod[width:]):
            raise InvariantError("Gaussian binomial division left a remainder")
        del prod[width:]
        coeffs = prod
    return coeffs


def classical_coeffs_half(n, k):
    """The kernel that halves only the final result, kept verbatim as an
    oracle: every partial quotient is built up to D = k(n-k) // 2, steps
    that are not cut check their remainder, and the rest is mirrored."""
    k = min(k, n - k)
    deg = k * (n - k)
    half = deg // 2 + 1
    coeffs = [1]
    for i in range(1, k + 1):
        top = n - k + i
        # multiply by (1 - q^top), modulo q^half
        prod = coeffs + [0] * min(top, half - len(coeffs))
        prod[top:] = map(operator.sub, prod[top:], coeffs)
        # divide by (1 - q^i): the ascending recurrence g[j] = f[j] + g[j-i]
        # is a running sum along each residue class of j mod i
        for r in range(i):
            prod[r::i] = itertools.accumulate(prod[r::i])
        # what lies past the quotient's degree i(n-k) is the remainder
        width = min(i * (n - k) + 1, half)
        if any(prod[width:]):
            raise InvariantError("Gaussian binomial division left a remainder")
        del prod[width:]
        coeffs = prod
    _check_at_plus_minus_one(n, k, coeffs)
    coeffs += reversed(coeffs[: deg + 1 - half])
    return coeffs


def test_kernel_matches_loop_oracle_exhaustively():
    for n in range(61):
        for k in range(n + 1):
            assert _classical_coeffs(n, k) == classical_coeffs_loop(n, k), (n, k)


def test_kernel_matches_loop_oracle_on_random_pairs():
    rng = random.Random(20180207)
    for _ in range(10):
        n = rng.randint(61, 150)
        k = rng.randint(0, n)
        assert _classical_coeffs(n, k) == classical_coeffs_loop(n, k), (n, k)


classical_pair = st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))
)


@settings(max_examples=100, deadline=None)
@given(classical_pair)
def test_kernel_matches_slice_oracle_on_random_pairs(pair):
    n, k = pair
    assert _classical_coeffs(n, k) == classical_coeffs_slices(n, k)


@settings(max_examples=100, deadline=None)
@given(classical_pair)
def test_kernel_matches_half_oracle_on_random_pairs(pair):
    n, k = pair
    assert _classical_coeffs(n, k) == classical_coeffs_half(n, k)


@pytest.mark.parametrize(
    "n, k, step, j",
    [
        (4, 2, 2, 0),  # [4, 2]: degree 4, built whole, checked whole
        (3, 1, 1, 2),  # [3, 1]: degree 2, built whole
        (61, 30, 20, 311),  # [51, 20]: degree 620, built to 330
        (61, 30, 20, 290),  # the mirror partner of coefficient 330
    ],
)
def test_kernel_checks_every_step_for_palindromy(monkeypatch, n, k, step, j):
    # a wrong coefficient in one partial quotient is caught at that step,
    # before the checksum of the result
    qbinom_module = sys.modules["qneg.qbinom"]
    divide = qbinom_module._divide_by_one_minus_q_power

    def divide_and_corrupt(prod, i):
        divide(prod, i)
        if i == step:
            prod[j] += 1

    monkeypatch.setattr(qbinom_module, "_divide_by_one_minus_q_power", divide_and_corrupt)
    top = n - min(k, n - k) + step
    with pytest.raises(InvariantError, match=rf"\[{top}, {step}\] is not palindromic"):
        _classical_coeffs(n, k)


def check_whole_at_plus_minus_one(n, k, coeffs):
    """The checksum that read every coefficient, kept verbatim as an oracle."""
    if sum(coeffs) != math.comb(n, k):
        raise InvariantError(f"Gaussian binomial [{n}, {k}] is wrong at q = 1")
    at_minus_one = 0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)
    if sum(coeffs[::2]) - sum(coeffs[1::2]) != at_minus_one:
        raise InvariantError(f"Gaussian binomial [{n}, {k}] is wrong at q = -1")


def verdict(check, *args):
    try:
        check(*args)
    except InvariantError as err:
        return str(err)
    return None


@pytest.mark.parametrize("n, k", [(2, 1), (7, 3), (10, 3), (12, 6), (61, 30)])
def test_checksum_catches_a_perturbed_coefficient(n, k):
    # the checksum reads the coefficients up to the middle degree d // 2 and
    # gives the verdict of the whole-list one on the palindrome they mirror to
    coeffs = classical_coeffs_loop(n, k)
    half = coeffs[: (len(coeffs) + 1) // 2]
    _check_at_plus_minus_one(n, k, half)  # the true coefficients pass
    for s in range(len(half)):
        for t in (0, s // 2, s, len(half) - 1):
            changed = half[:]
            changed[s] += 2
            changed[t] -= 1
            whole = changed + changed[: len(coeffs) // 2][::-1]
            expected = verdict(check_whole_at_plus_minus_one, n, k, whole)
            assert verdict(_check_at_plus_minus_one, n, k, changed) == expected, (s, t)
    if len(coeffs) % 2:  # an even degree has a middle coefficient, counted once
        half[-1] += 2
        with pytest.raises(InvariantError, match="q = 1"):
            _check_at_plus_minus_one(n, k, half)
        half[-2] -= 1  # restores q = 1, moves q = -1 by 4
        with pytest.raises(InvariantError, match="q = -1"):
            _check_at_plus_minus_one(n, k, half)
    else:  # an odd degree pairs every coefficient with one of the other sign at q = -1
        half[-1] += 1
        with pytest.raises(InvariantError, match="q = 1"):
            _check_at_plus_minus_one(n, k, half)


def test_kernel_ends_in_the_checksum(monkeypatch):
    seen = []
    monkeypatch.setattr(
        sys.modules["qneg.qbinom"],
        "_check_at_plus_minus_one",
        lambda n, k, half: seen.append((n, k, list(half))),
    )
    coeffs = _classical_coeffs(10, 7)
    assert seen == [(10, 3, coeffs[:11])]  # degree 21: the half up to q^10


def test_kernel_properties_on_large_random_pairs():
    # palindromic, sums to C(n, k) at q = 1, and at q = 2 equals the product
    # of (2^(n-k+i) - 1) / (2^i - 1) over i = 1..k
    rng = random.Random(1802)
    for _ in range(4):
        n = rng.randint(151, 300)
        k = rng.randint(0, n)
        coeffs = _classical_coeffs(n, k)
        assert coeffs == coeffs[::-1], (n, k)
        assert sum(coeffs) == math.comb(n, k), (n, k)
        at_two = functools.reduce(lambda acc, c: 2 * acc + c, reversed(coeffs), 0)
        num = den = 1
        for i in range(1, k + 1):
            num *= 2 ** (n - k + i) - 1
            den *= 2**i - 1
        assert at_two * den == num, (n, k)


# -- resuming on a diagonal -------------------------------------------------------


@st.composite
def diagonal_steps(draw):
    """(m, j, k) with 1 <= j <= k <= m: [m+j, j] and [m+k, k] share the
    diagonal m, and k is already the smaller of k and m."""
    m = draw(st.integers(1, 200))
    k = draw(st.integers(1, min(m, 100)))
    return m, draw(st.integers(1, k)), k


@settings(max_examples=100, deadline=None)
@given(diagonal_steps())
@example((1, 1, 1))
@example((7, 5, 5))
@example((200, 1, 100))
def test_kernel_resumed_on_the_diagonal_matches_half_oracle(steps):
    m, j, k = steps
    expected = classical_coeffs_half(m + k, k)
    start = qbinom(m + j, j)
    assert _classical_coeffs(m + k, k, start=start) == expected
    assert _classical_coeffs(m + k, m, start=start) == expected  # [m+k, m] = [m+k, k]


def cold(n, k):
    """qbinom(n, k) from an empty cache and an empty diagonal index."""
    qbinom.cache_clear()
    return qbinom(n, k)


def test_warm_diagonal_index_gives_the_cold_values():
    # each cold value is computed from an empty cache and an empty index;
    # only its coefficients are kept, so no later cold value can resume
    depths = sys.modules["qneg.qbinom"]._DEPTHS
    box = [(n, k) for n in range(-24, 25) for k in range(-24, 25)]
    expected = {}
    for pair in box:
        qbinom.cache_clear()
        assert depths == {}
        value = qbinom(*pair)
        expected[pair] = (value.val, value.coeffs)
        del value

    def coefficients(values):
        return {pair: (v.val, v.coeffs) for pair, v in values.items()}

    qbinom.cache_clear()
    ascending = {pair: qbinom(*pair) for pair in box}
    assert coefficients(ascending) == expected
    # the ascending values are still held here, so after the cache is
    # cleared every classical value resumes from its own diagonal entry
    qbinom.cache_clear()
    assert coefficients({pair: qbinom(*pair) for pair in reversed(box)}) == expected
    del ascending
    qbinom.cache_clear()
    assert coefficients({pair: qbinom(*pair) for pair in reversed(box)}) == expected


def test_a_classical_value_and_its_mirror_are_one_object():
    # [n, k] = [n, n - k] is computed and held once, on the side k <= n - k
    for n in range(41):
        for k in range(n + 1):
            assert qbinom(n, n - k) is qbinom(n, k)


def test_negative_regions_resume_on_a_shared_diagonal():
    # (-m-1, j) reflects onto [m+j, j], and so does (-j-1, -j-1-m); the two
    # regions take turns along the diagonal, up it and then down it
    for m in (1, 6, 37):
        pairs = [p for j in range(1, m + 1) for p in ((-m - 1, j), (-j - 1, -j - 1 - m))]
        for order in (pairs, pairs[::-1]):
            expected = [cold(*pair) for pair in order]
            qbinom.cache_clear()
            assert [qbinom(*pair) for pair in order] == expected


def test_negative_values_of_sign_minus_one_share_their_mirrored_ints():
    # a negative-region value negates the half of its classical reflection
    # and mirrors it, so coefficient i and coefficient d - i are one object
    # wherever the classical value's are; the rows are cleared as they go,
    # so that the cache stays small
    for n in range(-60, 0):
        for k in range(-60, 61):
            if k >= 0:
                sign, top, j, e = (-1) ** k, k - n - 1, k, k * (2 * n - k + 1) // 2
            elif k <= n:
                sign, top, j, e = (-1) ** (n - k), -k - 1, -n - 1, (n * (n + 1) - k * (k + 1)) // 2
            else:
                continue
            value = qbinom(n, k)
            if sign > 0:
                assert value == qbinom(top, j).shift(e), (n, k)
                continue
            assert value == (qbinom(top, j) * -1).shift(e), (n, k)
            coeffs = value.coeffs
            assert all(x is y for x, y in zip(coeffs, reversed(coeffs))), (n, k)
        qbinom.cache_clear()


@pytest.mark.parametrize("m, j, k", [(1, 1, 1), (6, 2, 2), (6, 2, 5), (30, 11, 30), (29, 12, 13)])
def test_kernel_rejects_a_start_with_one_coefficient_changed(m, j, k):
    start = qbinom(m + j, j)
    for t in range(len(start.coeffs)):
        changed = list(start.coeffs)
        changed[t] += 1
        with pytest.raises(InvariantError):
            _classical_coeffs(m + k, k, start=LaurentPoly(0, changed))


def test_kernel_rejects_a_start_off_the_diagonal():
    with pytest.raises(InvariantError, match="not a palindrome"):
        _classical_coeffs(20, 10, start=qbinom(13, 4))  # diagonal 9, not 10
    with pytest.raises(InvariantError, match="not a palindrome"):
        _classical_coeffs(20, 5, start=qbinom(21, 5))  # diagonal 16, not 15
    for start, diagonal in [(qbinom(13, 4), -9), (ONE, -1)]:  # a negative diagonal
        with pytest.raises(InvariantError, match="not a palindrome"):
            _classical_coeffs(20, 10, start=start, diagonal=diagonal)


def test_diagonal_index_retains_nothing_after_cache_clear():
    qbinom_module = sys.modules["qneg.qbinom"]
    for n in range(-30, 31):
        for k in range(-30, 31):
            qbinom(n, k)
    assert len(qbinom_module._DIAGONALS) > 0
    qbinom.cache_clear()
    assert len(qbinom_module._DIAGONALS) == 0
    assert list(qbinom_module._DIAGONALS.values()) == []


# -- resuming from a lower diagonal ----------------------------------------------


@st.composite
def column_walks(draw):
    """(a, j, m, k) with 1 <= j <= k <= m and 1 <= a <= m: the walk from
    [a+j, j] to [m+k, k] takes the steps of the diagonal j from depth a to
    m, then those of the diagonal m from j to k."""
    m = draw(st.integers(1, 200))
    k = draw(st.integers(1, min(m, 100)))
    return draw(st.integers(1, m)), draw(st.integers(1, k)), m, k


@settings(max_examples=100, deadline=None)
@given(column_walks())
@example((1, 1, 1, 1))
@example((3, 1, 5, 1))  # column steps only, each built whole
@example((10, 2, 200, 2))  # column windows wider than the next diagonal's
@example((199, 100, 200, 100))
def test_kernel_resumed_from_a_lower_diagonal_matches_half_oracle(walk):
    a, j, m, k = walk
    expected = classical_coeffs_half(m + k, k)
    start = qbinom(a + j, j)
    assert _classical_coeffs(m + k, k, start=start, diagonal=a) == expected
    assert _classical_coeffs(m + k, m, start=start, diagonal=a) == expected


def test_warm_values_equal_cold_ones_in_shuffled_orders():
    # each cold value is computed from an empty cache and an empty index, so
    # it runs every step from [m, 0] = 1
    depths = sys.modules["qneg.qbinom"]._DEPTHS
    box = [(n, k) for n in range(-40, 41) for k in range(-40, 41)]
    expected = {}
    for pair in box:
        qbinom.cache_clear()
        assert depths == {}
        value = qbinom(*pair)
        expected[pair] = (value.val, value.coeffs)
        del value
    for seed in (1, 2, 3):
        order = box[:]
        random.Random(seed).shuffle(order)
        qbinom.cache_clear()
        warm = {pair: qbinom(*pair) for pair in order}
        assert {pair: (v.val, v.coeffs) for pair, v in warm.items()} == expected, seed
        del warm


@pytest.mark.parametrize(
    "a, j, m, k, step, i",
    [
        (3, 1, 5, 1, 4, 0),  # [5, 4]: degree 4, built whole
        (30, 10, 40, 20, 35, 190),  # [45, 35]: degree 350, built to 210
        (30, 10, 40, 20, 35, 160),  # the mirror partner of coefficient 190
    ],
)
def test_kernel_checks_every_column_step_for_palindromy(monkeypatch, a, j, m, k, step, i):
    # the column steps come first, so the first division by 1 - q^step is
    # that of [j + step, step]
    start = qbinom(a + j, j)
    qbinom_module = sys.modules["qneg.qbinom"]
    divide = qbinom_module._divide_by_one_minus_q_power

    def divide_and_corrupt(prod, d):
        divide(prod, d)
        if d == step:
            prod[i] += 1

    monkeypatch.setattr(qbinom_module, "_divide_by_one_minus_q_power", divide_and_corrupt)
    with pytest.raises(InvariantError, match=rf"\[{j + step}, {step}\] is not palindromic"):
        _classical_coeffs(m + k, k, start=start, diagonal=a)


@pytest.mark.parametrize(
    "a, j, m, k",
    [
        (1, 1, 2, 1),
        (3, 2, 6, 2),
        (3, 2, 6, 5),
        (12, 11, 30, 30),
        (20, 12, 29, 13),
        # starts past the target, walked back by down-steps
        (2, 1, 1, 1),
        (8, 3, 6, 2),
        (9, 8, 9, 3),
        (31, 5, 30, 12),
        (36, 20, 30, 13),
    ],
)
def test_kernel_rejects_a_column_start_with_one_coefficient_changed(a, j, m, k):
    start = qbinom(a + j, j)
    for t in range(len(start.coeffs)):
        changed = list(start.coeffs)
        changed[t] += 1
        with pytest.raises(InvariantError):
            _classical_coeffs(m + k, k, start=LaurentPoly(0, changed), diagonal=a)


@pytest.mark.parametrize(
    "a, j, m, k, s, i, quotient",
    [
        # down the diagonal 10 from depth 50 to 40: the step to depth 45
        # divides by 1 - q^56, and [55, 45] is built to 281 of degree 450
        (50, 10, 40, 10, 56, 250, (55, 45)),
        (50, 10, 40, 10, 56, 200, (55, 45)),  # the mirror partner of coefficient 250
        # down the diagonal 40 from depth 15 to 10: the step to depth 12
        # divides by 1 - q^53, and [52, 12] is built to 293 of degree 480
        (40, 15, 40, 10, 53, 260, (52, 12)),
        (40, 15, 40, 10, 53, 220, (52, 12)),
        (2, 1, 1, 1, 3, 0, (2, 1)),  # [2, 1]: degree 1, built whole
    ],
)
def test_kernel_checks_every_down_step_for_palindromy(monkeypatch, a, j, m, k, s, i, quotient):
    start = qbinom(a + j, j)
    qbinom_module = sys.modules["qneg.qbinom"]
    divide = qbinom_module._divide_by_one_minus_q_power

    def divide_and_corrupt(prod, d):
        divide(prod, d)
        if d == s:
            prod[i] += 1

    monkeypatch.setattr(qbinom_module, "_divide_by_one_minus_q_power", divide_and_corrupt)
    top, step = quotient
    with pytest.raises(InvariantError, match=rf"\[{top}, {step}\] is not palindromic"):
        _classical_coeffs(m + k, k, start=start, diagonal=a)


@st.composite
def walks_from_every_side(draw):
    """(a, j, m, k) with 1 <= k <= m and 0 <= j <= min(a, 100): the held
    [a+j, j] on a chosen side of the target [m+k, k] in each coordinate, a
    below or above m and j below or above k (or equal, where a side is
    empty)."""
    m = draw(st.integers(1, 200))
    k = draw(st.integers(1, min(m, 100)))
    a_above, j_above = draw(st.booleans()), draw(st.booleans())
    a = draw(st.integers(m, 200) if a_above else st.integers(1, m))
    top = min(a, 100)
    j = draw(st.integers(min(k, top), top) if j_above else st.integers(0, min(k, top)))
    return a, j, m, k


@settings(max_examples=100, deadline=None)
@given(walks_from_every_side())
@example((2, 1, 1, 1))  # one step back in a
@example((3, 3, 5, 2))  # a up, j down
@example((200, 100, 150, 60))  # both down
@example((100, 20, 120, 60))  # both up
@example((190, 3, 100, 100))  # a down, j up
@example((100, 0, 100, 100))  # from [100, 0] = 1 on the target's diagonal
def test_kernel_resumed_from_every_side_matches_half_oracle(walk):
    a, j, m, k = walk
    expected = classical_coeffs_half(m + k, k)
    start = qbinom(a + j, j)
    assert _classical_coeffs(m + k, k, start=start, diagonal=a) == expected
    assert _classical_coeffs(m + k, m, start=start, diagonal=a) == expected


def test_kernel_rejects_a_start_off_its_stated_diagonal():
    # [20, 5] lies on the diagonal 15
    for start, diagonal in [
        (qbinom(22, 5), 18),  # [22, 5] lies on the diagonal 17
        (qbinom(16, 4), 11),  # [16, 4] lies on the diagonal 12
        (qbinom(5, 1), 0),
    ]:
        with pytest.raises(InvariantError, match="not a palindrome"):
            _classical_coeffs(20, 5, start=start, diagonal=diagonal)
    # a palindrome of degree 2 that is not [3, 1] is caught on the walk
    with pytest.raises(InvariantError):
        _classical_coeffs(20, 5, start=LaurentPoly(0, (1, 2, 1)), diagonal=2)


def test_kernel_walks_back_from_a_start_past_the_target():
    # [20, 5] lies on the diagonal 15 at depth 5
    expected = classical_coeffs_half(20, 5)
    assert _classical_coeffs(20, 5, start=qbinom(21, 6)) == expected  # deeper on 15
    for start, diagonal in [
        (qbinom(22, 5), 17),  # a diagonal past 15
        (qbinom(18, 6), 12),  # a depth past 5
        (qbinom(28, 7), 21),  # both
        (qbinom(16, 4), 4),  # [16, 4] = [16, 12] lies on the diagonal 4 at depth 12
    ]:
        assert _classical_coeffs(20, 5, start=start, diagonal=diagonal) == expected


def test_kernel_moves_the_diagonal_first_then_the_depth(monkeypatch):
    # [25, 5] lies on the diagonal 20 at depth 5, [18, 8] on the diagonal 10
    # at depth 8: up from 10 to 20 at depth 8, then down from 8 to 5 on 20
    qbinom_module = sys.modules["qneg.qbinom"]
    divide, divisors = qbinom_module._divide_by_one_minus_q_power, []

    def recording_divide(prod, d):
        divisors.append(d)
        divide(prod, d)

    start = qbinom(18, 8)
    monkeypatch.setattr(qbinom_module, "_divide_by_one_minus_q_power", recording_divide)
    assert _classical_coeffs(25, 5, start=start, diagonal=10) == classical_coeffs_half(25, 5)
    assert divisors == [*range(11, 21), 28, 27, 26]


def test_nearest_start_picks_the_least_cost_source():
    qbinom_module = sys.modules["qneg.qbinom"]
    nearest = qbinom_module._nearest_start
    qbinom.cache_clear()
    assert nearest(45, 12) == (None, 45)
    shallow = qbinom(42, 2)  # diagonal 40, depth 2: 2 (45^2 - 40^2) + 45 (12^2 - 2^2)
    assert 2 * (45**2 - 40**2) + 45 * (12**2 - 2**2) > 45 * 12**2
    assert nearest(45, 12) == (None, 45)
    lower = qbinom(50, 10)  # diagonal 40, depth 10: 10 (45^2 - 40^2) + 45 (12^2 - 10^2)
    assert 10 * (45**2 - 40**2) + 45 * (12**2 - 10**2) < 45 * 12**2
    assert nearest(45, 12) == (lower, 40)
    # to [54, 9], depth 10 costs 10 (45^2 - 40^2) + 45 (10^2 - 9^2) = 5105,
    # and depth 2 costs 2 (45^2 - 40^2) + 45 (9^2 - 2^2) = 4315
    assert 10 * 425 + 45 * 19 == 5105 > 45 * 9**2
    assert 4315 > 45 * 9**2
    assert nearest(45, 9) == (None, 45)
    same = qbinom(56, 11)  # diagonal 45, depth 11: 45 (12^2 - 11^2)
    assert nearest(45, 12) == (same, 45)
    assert nearest(45, 10) == (same, 45)  # one step back: 45 (11^2 - 10^2)
    assert nearest(38, 10) == (lower, 40)  # a higher diagonal: 10 (40^2 - 38^2)
    far = qbinom(2, 1)  # diagonal 1, depth 1
    assert nearest(45, 12) == (same, 45)
    del shallow, lower, same, far


def test_nearest_start_looks_at_no_more_than_k_plus_one_plus_half_k_diagonals(monkeypatch):
    # whatever the index holds: 1 <= j <= min(a, 6) on every diagonal a < 120;
    # the least cost is at most m k^2, so the scan stops below m once
    # k (m^2 - a^2) >= m k^2, a <= m - k, and above it once a >= m + k / 2
    qbinom_module = sys.modules["qneg.qbinom"]
    qbinom.cache_clear()
    held = [qbinom(a + j, j) for a in range(1, 120) for j in range(1, min(a, 6) + 1)]
    looked = []

    class Counting(dict):
        def get(self, a, default=None):
            looked.append(a)
            return super().get(a, default)

    monkeypatch.setattr(qbinom_module, "_DEPTHS", Counting(qbinom_module._DEPTHS))
    for m, k in [(100, 5), (119, 1), (60, 30), (200, 40), (119, 119)]:
        looked.clear()
        qbinom_module._nearest_start(m, k)
        assert 0 < len(looked) <= k + 1 + math.ceil(k / 2), (m, k)
    monkeypatch.undo()  # no value died meanwhile, so the index is as it was
    del held
    qbinom.cache_clear()


def test_index_holds_no_value_and_no_depth_after_cache_clear():
    qbinom_module = sys.modules["qneg.qbinom"]
    qbinom.cache_clear()
    for n in range(-30, 31):
        for k in range(-30, 31):
            qbinom(n, k)
    depths = qbinom_module._DEPTHS
    held = {(a, j) for a, js in depths.items() for j in js}
    assert held == set(qbinom_module._DIAGONALS) and held
    assert all(js == sorted(set(js)) for js in depths.values())
    qbinom.cache_clear()
    assert depths == {} and qbinom_module._DIAGONALS == {}


def test_index_stays_consistent_under_concurrent_fill_and_clear():
    # six threads on two cores fill overlapping boxes while one clears the
    # cache, with thread switches forced often; every value stays exact and
    # the depths on each diagonal stay those of the held values
    import threading

    qbinom_module = sys.modules["qneg.qbinom"]
    qbinom.cache_clear()
    box = [(n, k) for n in range(-20, 21) for k in range(-20, 21)]
    expected = {pair: qbinom(*pair) for pair in box}
    qbinom.cache_clear()
    wrong = []

    def fill(seed):
        order = box[:]
        random.Random(seed).shuffle(order)
        wrong.extend(pair for pair in order if qbinom(*pair) != expected[pair])

    def clear():
        for _ in range(20):
            qbinom.cache_clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(seed,)) for seed in range(5)]
        threads.append(threading.Thread(target=clear))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    depths = qbinom_module._DEPTHS
    assert {(a, j) for a, js in depths.items() for j in js} == set(qbinom_module._DIAGONALS)
    assert all(js == sorted(set(js)) for js in depths.values())
    del expected  # the index holds these too, as long as they live
    qbinom.cache_clear()
    assert depths == {} and qbinom_module._DIAGONALS == {}


def test_index_keeps_no_value_that_is_dropped():
    qbinom_module = sys.modules["qneg.qbinom"]
    qbinom.cache_clear()
    value = LaurentPoly(0, classical_coeffs_half(13, 5))
    qbinom_module._remember(8, 5, value)
    assert qbinom_module._nearest_start(8, 5) == (value, 8)
    del value
    assert qbinom_module._DEPTHS == {} and qbinom_module._DIAGONALS == {}
    assert qbinom_module._nearest_start(8, 5) == (None, 8)


# -- integer specialization -----------------------------------------------------


def test_binom_golden_values():
    assert binom(-11, -19) == 43758
    assert binom(-3, 2) == 6
    assert binom(-2, -3) == -2


def test_binom_matches_eval_at_one():
    for n in range(-12, 13):
        for k in range(-12, 13):
            assert binom(n, k) == qbinom(n, k).eval_at_one()


def test_binom_matches_eval_at_one_exhaustively():
    # binom tells the regions apart by sign tests, without `region`; the
    # cache is cleared after each row, so that its peak stays small
    for n in range(-60, 61):
        for k in range(-60, 61):
            assert binom(n, k) == qbinom(n, k).eval_at_one(), (n, k)
        qbinom.cache_clear()


def test_binom_classical_is_comb():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert binom(n, k) == math.comb(n, k)


# -- identities -----------------------------------------------------------------


def test_pascal_identity_and_alternate():
    for n in BOX:
        for k in BOX:
            if (n, k) == (0, 0):
                continue
            lhs = qbinom(n, k)
            assert lhs == qbinom(n - 1, k - 1) + qbinom(n - 1, k).shift(k)
            assert lhs == qbinom(n - 1, k - 1).shift(n - k) + qbinom(n - 1, k)


def test_pascal_identity_fails_only_at_origin():
    rhs = qbinom(-1, -1) + qbinom(-1, 0).shift(0)
    assert rhs == ONE + ONE
    assert qbinom(0, 0) == ONE


def test_q_inversion():
    for n in BOX:
        for k in BOX:
            v = qbinom(n, k)
            assert v == v.substitute_qinv().shift(k * (n - k))


def test_symmetry():
    for n in BOX:
        for k in BOX:
            assert qbinom(n, k) == qbinom(n, n - k)


def test_reflection():
    for n in BOX:
        for k in BOX:
            sign = (-1 if k % 2 else 1) * sgn(k)
            pre = LaurentPoly.q_power(k * (2 * n - k + 1) // 2, sign)
            assert qbinom(n, k) == pre * qbinom(k - n - 1, k)


def test_absorption():
    for n in BOX:
        for k in BOX:
            if k == 0:
                continue
            lhs = (ONE - LaurentPoly.q_power(k)) * qbinom(n, k)
            rhs = (ONE - LaurentPoly.q_power(n)) * qbinom(n - 1, k - 1)
            assert lhs == rhs


# -- identities beyond the box, on random |n|, |k| <= 300 ---------------------------

entry = st.integers(-300, 300)


def fits(n, k):
    # every value has a classical reflection [N, K] with K(N - K) + 1
    # coefficients, the size of its degree profile; cap it at 25,000, since
    # [599, 300] has 89,701 and takes over a second
    prof = degree_profile(n, k)
    return prof is None or prof[1] - prof[0] < 25_000


@settings(max_examples=100, deadline=None)
@given(entry, entry)
def test_pascal_identity_and_alternate_beyond_the_box(n, k):
    assume((n, k) != (0, 0) and fits(n, k) and fits(n - 1, k - 1) and fits(n - 1, k))
    lhs = qbinom(n, k)
    assert lhs == qbinom(n - 1, k - 1) + qbinom(n - 1, k).shift(k)
    assert lhs == qbinom(n - 1, k - 1).shift(n - k) + qbinom(n - 1, k)


@settings(max_examples=100, deadline=None)
@given(entry, entry)
def test_six_forms_and_q_inversion_beyond_the_box(n, k):
    assume(fits(n, k))
    lhs = qbinom(n, k)
    for pre, (n2, k2) in six_forms(n, k):
        assert pre * qbinom(n2, k2) == lhs, (n2, k2)
    assert lhs == lhs.substitute_qinv().shift(k * (n - k))


@settings(max_examples=100, deadline=None)
@given(entry, entry)
def test_degree_profile_beyond_the_box(n, k):
    assume(fits(n, k))
    v = qbinom(n, k)
    prof = degree_profile(n, k)
    if v.is_zero():
        assert prof is None
    else:
        assert prof == (v.valuation(), v.degree()) and v.is_self_reciprocal()


# -- six forms --------------------------------------------------------------------


def test_six_forms_spec_examples():
    forms = six_forms(-3, 2)
    assert forms[4] == (LaurentPoly.q_power(-7), (4, 2))
    assert LaurentPoly.q_power(-7) * qbinom(4, 2) == qbinom(-3, 2)
    n, k = 6, -4
    assert six_forms(n, k)[0] == (ONE, (n, n - k))
    assert all(pre * qbinom(n2, k2) == ONE for pre, (n2, k2) in six_forms(0, 0))


def test_six_forms_reproduce_everywhere():
    for n in BOX:
        for k in BOX:
            lhs = qbinom(n, k)
            forms = six_forms(n, k)
            assert len(forms) == 6
            for pre, (n2, k2) in forms:
                assert pre * qbinom(n2, k2) == lhs, (n, k, n2, k2)


# -- degrees ------------------------------------------------------------------------


def test_degree_profile_examples():
    assert degree_profile(-3, 2) == (-7, -3)
    assert degree_profile(4, 2) == (0, 4)
    assert degree_profile(-3, -4) == (-3, -1)
    assert degree_profile(3, -1) is None


def test_degree_profile_matches_and_self_reciprocal():
    for n in BOX:
        for k in BOX:
            v = qbinom(n, k)
            prof = degree_profile(n, k)
            if v.is_zero():
                assert prof is None
            else:
                assert prof == (v.valuation(), v.degree())
                assert v.is_self_reciprocal()
                assert all(isinstance(c, int) for c in v.coeffs)
