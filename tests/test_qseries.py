"""Expansions in q-commuting variables and the associated theorems."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qneg import laurent, qseries
from qneg.laurent import ONE, ZERO, InvariantError, LaurentPoly, cyclotomic_poly, divides
from qneg.qbinom import qbinom
from qneg.qseries import (
    Direction,
    NormalSeries,
    PowerSeriesInX,
    freshman_congruence,
    pochhammer_expansion,
    power_xy,
    series_mul,
    verify_chu_vandermonde,
)

FZ = Direction.FROM_ZERO
FI = Direction.FROM_INFINITY


def L(terms):
    return LaurentPoly.from_terms(terms)


# -- multiplication -----------------------------------------------------------


def test_square_of_x_plus_y():
    s = series_mul(power_xy(1, FZ, 8), power_xy(1, FZ, 8))
    assert s.n == 2
    assert s.coefficient(0) == ONE
    assert s.coefficient(1) == L({0: 1, 1: 1})  # 1 + q
    assert s.coefficient(2) == ONE


def test_multiplying_by_one_is_identity():
    one = power_xy(0, FZ, 10)
    s = power_xy(-2, FZ, 10)
    assert series_mul(s, one) == s
    assert series_mul(one, s) == s


@pytest.mark.parametrize("direction", [FZ, FI])
def test_inverse_telescopes(direction):
    product = series_mul(power_xy(-1, direction, 12), power_xy(1, direction, 12))
    assert product.n == 0
    lo, hi = product.window()
    for k in range(lo, hi + 1):
        assert product.coefficient(k) == (ONE if k == 0 else ZERO)


def test_direction_mismatch_rejected():
    with pytest.raises(ValueError):
        series_mul(power_xy(-1, FZ, 6), power_xy(-1, FI, 6))


def test_multiplicativity_on_common_window():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for direction in (FZ, FI):
                product = series_mul(
                    power_xy(a, direction, 10), power_xy(b, direction, 10)
                )
                direct = power_xy(a + b, direction, 10)
                lo = max(product.window()[0], direct.window()[0])
                hi = min(product.window()[1], direct.window()[1])
                for k in range(lo, hi + 1):
                    assert product.coefficient(k) == direct.coefficient(k), (a, b, k)


def four_way_truncation(a: NormalSeries, b: NormalSeries) -> int:
    # The truncation rule series_mul used before it took the least
    # truncation of its inexact factors, kept as the reference, with the
    # former NormalSeries._is_exact inlined.
    def is_exact(s):
        return s.n >= 0 and s.truncation >= s.n + 1

    exact_a, exact_b = is_exact(a), is_exact(b)
    if exact_a and exact_b:
        truncation = a.n + b.n + 1
    elif exact_a:
        truncation = b.truncation
    elif exact_b:
        truncation = a.truncation
    else:
        truncation = min(a.truncation, b.truncation)
    return truncation


@pytest.mark.parametrize("direction", [FZ, FI])
def test_product_window_is_the_four_way_rule(direction):
    # every pair of n in -3..3 and truncations 1..6: exact x exact, exact x
    # inexact in both orders, inexact x inexact; on the window the rule
    # gives, the product is (x+y)^(n1+n2)
    factors = [power_xy(n, direction, t) for n in range(-3, 4) for t in range(1, 7)]
    for a in factors:
        for b in factors:
            truncation = four_way_truncation(a, b)
            direct = power_xy(a.n + b.n, direction, truncation)
            product = series_mul(a, b)
            assert product.truncation == truncation, (a.n, a.truncation, b.n, b.truncation)
            assert product.window() == direct.window()
            assert product.terms == {k: v for k, v in direct.terms.items() if not v.is_zero()}


# -- the expansions of (x+y)^n ---------------------------------------------------


def test_inverse_series_coefficients():
    s = power_xy(-1, FZ, 4)
    assert s.coefficient(3) == L({-6: -1})
    assert [s.coefficient(k) for k in range(4)] == [
        ONE,
        L({-1: -1}),
        L({-3: 1}),
        L({-6: -1}),
    ]


def test_square_coefficients():
    s = power_xy(2, FZ, 8)
    assert [s.coefficient(k) for k in range(3)] == [ONE, L({0: 1, 1: 1}), ONE]


def test_from_infinity_cross_oracle():
    s = power_xy(-3, FI, 8)
    assert s.coefficient(-5) == qbinom(-3, -5)
    assert s.coefficient(-4) == qbinom(-3, -4)


def test_binomial_theorem_both_directions():
    for n in range(-6, 7):
        from_zero = power_xy(n, FZ, 10)
        for k in range(0, 10):
            assert from_zero.coefficient(k) == qbinom(n, k), (n, k)
        from_inf = power_xy(n, FI, 10)
        for k in range(n, n - 10, -1):
            assert from_inf.coefficient(k) == qbinom(n, k), (n, k)


def test_coefficient_window_contract():
    s = power_xy(4, FZ, 16)
    assert s.coefficient(5) == ZERO  # inside window, beyond support
    assert s.coefficient(15) == ZERO
    with pytest.raises(ValueError):
        s.coefficient(16)
    with pytest.raises(ValueError):
        s.coefficient(-1)  # from-zero expansion says nothing for k < 0
    t = power_xy(-3, FI, 8)
    with pytest.raises(ValueError):
        t.coefficient(-2)  # from-infinity expansion starts at k = n
    with pytest.raises(ValueError):
        t.coefficient(-11)


def test_power_xy_rejects_empty_window():
    with pytest.raises(ValueError):
        power_xy(3, FZ, 0)


def test_directions_coincide_for_nonnegative_powers():
    for n in range(0, 6):
        assert power_xy(n, FZ, 10).terms == power_xy(n, FI, 10).terms


# -- pochhammer expansion ----------------------------------------------------------


def test_pochhammer_geometric_oracle():
    # (-x; q)_{-1} = 1/(1 + x/q): coefficient of x^k is (-1)^k q^-k
    s = pochhammer_expansion(-1, 10)
    for k in range(10):
        assert s.coefficient(k) == LaurentPoly.q_power(-k, -1 if k % 2 else 1)


def test_pochhammer_quadratic():
    s = pochhammer_expansion(2, 4)
    assert s.coefficient(0) == ONE
    assert s.coefficient(1) == L({0: 1, 1: 1})
    assert s.coefficient(2) == L({1: 1})
    assert s.coefficient(3) == ZERO


def test_pochhammer_cross_oracle():
    s = pochhammer_expansion(-3, 6)
    assert s.coefficient(2) == qbinom(-3, 2).shift(1)


def test_commutative_q_binomial_theorem():
    for n in range(-5, 6):
        s = pochhammer_expansion(n, 10)
        for k in range(10):
            assert s.coefficient(k) == qbinom(n, k).shift(k * (k - 1) // 2), (n, k)


def test_pochhammer_window_contract():
    s = pochhammer_expansion(3, 5)
    with pytest.raises(ValueError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        s.coefficient(-1)


# -- the constructions the factor chain replaced, kept as oracles -----------------
#
# power_xy multiplied a base series with series_mul, the geometric series of
# (x+y)^-1 for negative powers, and pochhammer_expansion ran a product loop
# for n >= 0 and a convolution with geometric series for n < 0.


def _make_series(
    n: int, direction: Direction, terms: dict[int, LaurentPoly], truncation: int
) -> NormalSeries:
    lo = 0 if direction is Direction.FROM_ZERO else n - truncation + 1
    hi = truncation - 1 if direction is Direction.FROM_ZERO else n
    kept = {k: v for k, v in terms.items() if lo <= k <= hi and not v.is_zero()}
    return NormalSeries(n, direction, kept, truncation)


def _inverse_base(direction: Direction, truncation: int) -> NormalSeries:
    # (x+y)^-1 from the geometric series, normal-ordered:
    #   from zero:      sum_{k>=0} (-1)^k     q^(-k(k+1)/2) x^k y^(-1-k)
    #   from infinity:  sum_{k<=-1} (-1)^(k+1) q^(-k(k+1)/2) x^k y^(-1-k)
    terms: dict[int, LaurentPoly] = {}
    if direction is Direction.FROM_ZERO:
        ks = range(0, truncation)
        for k in ks:
            terms[k] = LaurentPoly.q_power(-k * (k + 1) // 2, -1 if k % 2 else 1)
    else:
        ks = range(-1, -truncation - 1, -1)
        for k in ks:
            terms[k] = LaurentPoly.q_power(-k * (k + 1) // 2, 1 if k % 2 else -1)
    return NormalSeries(-1, direction, terms, truncation)


def power_xy_by_series_mul(n: int, direction: Direction, truncation: int) -> NormalSeries:
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if n == 0:
        return _make_series(0, direction, {0: ONE}, truncation)
    if n > 0:
        base = _make_series(1, direction, {0: ONE, 1: ONE}, truncation)
        acc = base
        for _ in range(n - 1):
            acc = series_mul(acc, base)
        # Re-window to the requested truncation: either the fold stayed at
        # that truncation, or it produced the complete polynomial, whose
        # coefficients beyond the support are known to be zero.
        return _make_series(n, direction, acc.terms, truncation)
    base = _inverse_base(direction, truncation)
    acc = base
    for _ in range(-n - 1):
        acc = series_mul(acc, base)
    return acc


def pochhammer_by_convolution(n: int, truncation: int) -> PowerSeriesInX:
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    coeffs: dict[int, LaurentPoly] = {0: ONE}
    if n >= 0:
        for j in range(n):
            qj = LaurentPoly.q_power(j)
            new: dict[int, LaurentPoly] = {}
            for k in range(min(truncation, len(coeffs) + 1)):
                term = coeffs.get(k, ZERO) + coeffs.get(k - 1, ZERO) * qj
                if not term.is_zero():
                    new[k] = term
            coeffs = new
    else:
        for j in range(1, -n + 1):
            new = {}
            for k in range(truncation):
                # convolution against (-1)^m q^(-jm) at m = k - i
                total = ZERO
                for i in range(k + 1):
                    c = coeffs.get(i)
                    if c is None:
                        continue
                    m = k - i
                    total = total + c.shift(-j * m) * (-1 if m % 2 else 1)
                if not total.is_zero():
                    new[k] = total
            coeffs = new
    return PowerSeriesInX(coeffs, truncation)


@pytest.mark.parametrize("n", range(-25, 26))
def test_factor_chain_equals_the_old_constructions(n):
    for truncation in (1, 2, 3, 7, 16, 25):
        for direction in (FZ, FI):
            expect = power_xy_by_series_mul(n, direction, truncation)
            assert power_xy(n, direction, truncation) == expect, (truncation, direction)
        expect = pochhammer_by_convolution(n, truncation)
        assert pochhammer_expansion(n, truncation) == expect, truncation


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 40))
def test_expansions_are_q_binomials_beyond_the_box(n, truncation):
    from_zero = power_xy(n, FZ, truncation)
    from_inf = power_xy(n, FI, truncation)
    pochhammer = pochhammer_expansion(n, truncation)
    for k in range(truncation):
        assert from_zero.coefficient(k) == qbinom(n, k), k
        assert from_inf.coefficient(n - k) == qbinom(n, n - k), k
        assert pochhammer.coefficient(k) == qbinom(n, k).shift(k * (k - 1) // 2), k


def test_nonnegative_power_builds_no_window_past_its_support():
    # a window of 10**6 entries would take several MB for its list alone
    tracemalloc.start()
    try:
        s = power_xy(5, FZ, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert s.coefficient(10**6 - 1) == ZERO and s.coefficient(2) == qbinom(5, 2)


# -- Chu-Vandermonde -----------------------------------------------------------------


def test_chu_vandermonde_examples():
    assert verify_chu_vandermonde(-3, -1, 4)
    assert verify_chu_vandermonde(2, 3, 2)
    assert verify_chu_vandermonde(-2, -2, -3)


def test_chu_vandermonde_sweeps():
    for n in range(-5, 6):
        for m in range(-5, 6):
            for k in range(0, 7):
                assert verify_chu_vandermonde(n, m, k), (n, m, k)
    for n in range(-4, 0):
        for m in range(-4, 0):
            for k in range(-6, 0):
                assert verify_chu_vandermonde(n, m, k), (n, m, k)


def test_chu_vandermonde_rejects_mixed_signs():
    with pytest.raises(ValueError):
        verify_chu_vandermonde(3, -2, -1)
    with pytest.raises(ValueError):
        verify_chu_vandermonde(-2, 3, -4)


def _chu_case(n, m, k):
    """(n, m, k) moved into the branch of the identity its k selects."""
    return (n, m, k) if k >= 0 else (-abs(n) - 1, -abs(m) - 1, k)


@settings(max_examples=300, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-12, 12))
def test_packed_chu_sum_decides_as_the_exact_sum(n, m, k):
    # vanishing terms, [n, j] = 0 for 0 <= n < j, stay in the sum
    terms, rhs = qseries._chu_sides(*_chu_case(n, m, k))
    exact = laurent._products_sum(terms)
    assert exact == rhs
    for c in (rhs, rhs.shift(1), rhs + LaurentPoly.q_power(exact.valuation() - 1), -rhs):
        assert laurent._products_sum_equals(terms, c) is (exact == c)


@pytest.mark.parametrize("case", [(-3, -1, 4), (12, 7, 9), (-20, 15, 12), (-5, -4, -10)])
def test_packed_chu_rejections_are_confirmed_by_the_exact_sum(monkeypatch, case):
    sums, products_sum = [], laurent._products_sum

    def recording(terms):
        sums.append(products_sum(terms))
        return sums[-1]

    monkeypatch.setattr(qseries, "_products_sum", recording)
    terms, rhs = qseries._chu_sides(*case)
    assert verify_chu_vandermonde(*case) and not sums
    # negative controls: the right side times q, and one product plus 1
    a, b, e = terms[-1]
    plus_one = [*terms[:-1], (a * b + 1, ONE, e)]
    for sides in ((terms, rhs.shift(1)), (plus_one, rhs)):
        monkeypatch.setattr(qseries, "_chu_sides", lambda n, m, k, sides=sides: sides)
        assert not verify_chu_vandermonde(*case)
        assert sums.pop() != sides[1] and not sums


def test_packed_chu_rejecting_a_true_identity_raises(monkeypatch):
    monkeypatch.setattr(qseries, "_products_sum_equals", lambda terms, c: False)
    with pytest.raises(InvariantError):
        verify_chu_vandermonde(-3, -1, 4)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_pack_is_exact_at_each_slot_width_sign_boundary(width):
    # +-(2^(8 width - 1) - 1) are the largest magnitudes `width` bytes hold
    # in two's complement; the value is the polynomial at q = 2^(8 width).
    # The widths are those `_slot_width` gives: machine words, or past 8
    x = 2 ** (8 * width - 1) - 1
    for coeffs in ([x], [-x], [x, -x, 0, -x, x], [-x, 1, -1, x, 0, 0, -x]):
        expect = sum(c << 8 * width * i for i, c in enumerate(coeffs))
        assert laurent._pack(coeffs, width) == expect, coeffs
    assert laurent._pack([], width) == 0


# -- freshman's dream ------------------------------------------------------------------


def test_freshman_congruence_small():
    assert freshman_congruence(2)
    assert power_xy(2, FZ, 3).coefficient(1) == cyclotomic_poly(2)
    assert freshman_congruence(5)
    assert freshman_congruence(6)


def test_freshman_congruence_range():
    # 181 is the largest modulus `verify freshman` admits
    assert [m for m in range(2, 182) if not freshman_congruence(m)] == []


def test_freshman_congruence_confirms_each_rejected_residue(monkeypatch):
    # an annihilator that rejected a true residue would be caught by the
    # long division that confirms every rejection
    monkeypatch.setattr(qseries, "_annihilates", lambda r, m, w, primes: False)
    for m in (2, 6, 7):
        with pytest.raises(InvariantError):
            freshman_congruence(m)


def test_freshman_congruence_rejects_small_m():
    with pytest.raises(ValueError):
        freshman_congruence(1)


def _recorded_chains(monkeypatch, perturb=None):
    """Record each window that `freshman_congruence` takes from the factor
    chain, after `perturb` has changed it."""
    chains, factor_chain = [], qseries._factor_chain

    def recording(*args):
        chains.append(factor_chain(*args))
        if perturb:
            perturb(chains[-1])
        return chains[-1]

    monkeypatch.setattr(qseries, "_factor_chain", recording)
    return chains


def _freshman_width(m):
    """The bits a slot that `freshman_congruence` packs its residues at."""
    return m + len(laurent._prime_factors(m)) + 2


def _packed_fold(a, m, w):
    """The fold of `a` modulo q^m - 1 evaluated at q = 2**w, reduced modulo
    2**(w*m) - 1, term by term: the reference for the packed residues."""
    return sum(c << w * i for i, c in enumerate(laurent._fold(a, m, 0, m))) % ((1 << m * w) - 1)


def test_freshman_residue_chain_is_the_fold_of_the_exact_chain(monkeypatch):
    chains = _recorded_chains(monkeypatch)
    for m in range(2, 41):
        exact = power_xy(m, FZ, m + 1)
        w = _freshman_width(m)
        chains.clear()
        assert freshman_congruence(m), m
        [residues] = [c for c in chains if len(c) == m + 1]
        for k in range(m + 1):
            expect = _packed_fold(exact.coefficient(k), m, w)
            assert residues[k] % ((1 << m * w) - 1) == expect, (m, k)
            slots = laurent._residue_slots(residues[k], m, w)
            assert slots == laurent._fold(exact.coefficient(k), m, 0, m), (m, k)


@pytest.mark.parametrize("n", range(-12, 13))
def test_residue_chain_is_the_fold_of_the_exact_chain_at_any_n(n):
    # at n = m the chain gives the same residues with every shift inverted,
    # so only other n catch a rotation the wrong way; n < 0 runs differences
    for m in range(2, 8):
        for exponent in (qseries._xy_exponent, lambda j, i: j):
            window = qseries._factor_chain(n, 9, exponent, 1, laurent._rotation(m, 64))
            exact = qseries._factor_chain(n, 9, exponent)
            assert [r % ((1 << 64 * m) - 1) for r in window] == [_packed_fold(c, m, 64) for c in exact]


@pytest.mark.parametrize("n", [-1, -2, -17, -40])
def test_residue_chain_of_a_negative_power_is_the_fold_of_the_exact_chain(n):
    # for n < 0 every entry comes from subtractions, so packed residues go
    # negative; the Pochhammer exponent s = j is that of the folded q-Lucas
    # chain.  Each slot is packed at the fewest bits that hold it with its
    # sign, so the rotations and the unpacking run at their tightest
    for m in (2, 3, 5, 6, 12, 30):
        for exponent in (qseries._xy_exponent, lambda j, i: j):
            exact = qseries._factor_chain(n, 13, exponent)
            folds = [laurent._fold(c, m, 0, m) for c in exact]
            w = max(abs(s) for fold in folds for s in fold).bit_length() + 1
            window = qseries._factor_chain(n, 13, exponent, 1, laurent._rotation(m, w))
            assert [laurent._residue_slots(r, m, w) for r in window] == folds, (m, w)


@pytest.mark.parametrize("m", [2, 3, 6, 7, 12, 30])
def test_freshman_congruence_rejects_one_perturbed_interior_slot(monkeypatch, m):
    # a negative control: q^j is a unit modulo Phi_m, so adding it to one
    # interior residue leaves that entry no multiple of Phi_m
    rng = random.Random(m)
    k, j = rng.randrange(1, m), rng.randrange(m)

    def perturb(chain):
        if len(chain) == m + 1:
            chain[k] += 1 << j * _freshman_width(m)

    _recorded_chains(monkeypatch, perturb)
    assert not freshman_congruence(m), (k, j)


def test_freshman_congruence_reads_one_residue_chain_and_no_window(monkeypatch):
    def refuse(*args):
        raise AssertionError("freshman's dream read a power_xy window")

    monkeypatch.setattr(qseries, "power_xy", refuse)
    chains = _recorded_chains(monkeypatch)
    for m in range(2, 13):
        chains.clear()
        assert freshman_congruence(m), m
        assert [len(c) for c in chains] == [m + 1], m


@pytest.mark.parametrize("m", [2, 3, 6, 7, 12, 30])
def test_freshman_congruence_rejects_a_rotated_last_residue(monkeypatch, m):
    # a negative control: the first or the last entry becomes q, not 1
    # modulo q^m - 1, while every interior residue stays that of (x+y)^m
    for end in (0, m):

        def perturb(chain, end=end):
            if len(chain) == m + 1:
                chain[end] = laurent._rotation(m, _freshman_width(m))(chain[end], 1)

        with monkeypatch.context() as patch:
            _recorded_chains(patch, perturb)
            assert not freshman_congruence(m), end


def test_power_lift_mod_cyclotomic():
    # (x+y)^(nm) and the n-th power of (x^m + y^m) agree coefficient-wise
    # modulo Phi_m; the latter expands with q replaced by q^(m^2) at k = jm.
    for m in (2, 3, 4):
        phi = cyclotomic_poly(m)
        for n in range(-2, 3):
            for direction in (FZ, FI):
                series = power_xy(n * m, direction, 9)
                lo, hi = series.window()
                if direction is FZ:
                    js = range(0, hi // m + 2)
                else:
                    js = range(n, (lo - 1) // m - 1, -1)
                lifted = {
                    j * m: qbinom(n, j).inflate(m * m)
                    for j in js
                    if not qbinom(n, j).is_zero()
                }
                for k in range(lo, hi + 1):
                    diff = series.coefficient(k) - lifted.get(k, ZERO)
                    assert divides(phi, diff), (m, n, direction, k)
