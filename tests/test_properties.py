"""Property tests: the fast L0 paths against the reference paths they replace.

The Kronecker product must equal the schoolbook convolution exactly, and the
folded test for congruence modulo Phi_m must give the verdict of dividing the
difference by Phi_m.  Sums, negation, scaling and products with a monomial
must equal the per-coefficient loops they replaced, every result must be
canonical, and ``LaurentPoly`` must satisfy the ring laws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qneg.congruence import q_lucas_rhs
from qneg.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    _kronecker_mul,
    _schoolbook_mul,
    congruent_mod,
    cyclotomic,
    divides,
)
from qneg.qbinom import qbinom

# Small, zero and far-beyond-64-bit coefficients, both signs.
coefficient = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**200), 2**200),
)
# Lengths from a monomial up to 48 coefficients.
coeff_list = st.lists(coefficient, min_size=1, max_size=48).filter(any)
laurent = st.builds(
    LaurentPoly, st.integers(-60, 60), st.lists(coefficient, max_size=300)
)


@settings(max_examples=300, deadline=None)
@given(coeff_list, coeff_list)
def test_kronecker_product_is_the_schoolbook_product(a, b):
    expect = _schoolbook_mul(a, b)
    assert _kronecker_mul(a, b) == expect
    pa, pb = LaurentPoly(-len(a), a), LaurentPoly(3, b)
    assert pa * pb == LaurentPoly(3 - len(a), expect)


@pytest.mark.parametrize("width", range(1, 10))
def test_kronecker_product_at_each_slot_width_boundary(width):
    # bounds 16 x on 16 coefficients a side, just below 2^(8 width - 1),
    # the last that fits `width` bytes, and at it, the first that needs one
    # byte more; the products reach +-16 x, with both signs in the factors
    for x in (2 ** (8 * width - 5) - 1, 2 ** (8 * width - 5)):
        for sign in (1, -1):
            flat, alternating = [sign] * 16, [(-1) ** i * sign for i in range(16)]
            for a, b in [
                ([x] * 16, flat),
                ([-x] * 16, flat),
                ([(-1) ** i * x for i in range(16)], alternating),
            ]:
                expect = _schoolbook_mul(a, b)
                assert max(map(abs, expect)) == 16 * x
                assert _kronecker_mul(a, b) == expect
                assert _kronecker_mul(b, a) == expect
                assert LaurentPoly(0, a) * LaurentPoly(-5, b) == LaurentPoly(-5, expect)


@settings(max_examples=300, deadline=None)
@given(laurent, laurent, laurent, st.integers(2, 200))
def test_folded_congruence_is_divisibility_of_the_difference(a, b, c, m):
    mod = cyclotomic(m)
    assert congruent_mod(a, b, mod) == divides(mod.phi, a - b)
    multiple = a + c * mod.phi  # congruent to a by construction
    assert congruent_mod(multiple, a, mod) and divides(mod.phi, multiple - a)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-40, 40), st.integers(-40, 40), st.integers(2, 200), st.integers(-30, 30)
)
def test_folded_congruence_on_q_lucas_and_negative_controls(n, k, m, j):
    mod = cyclotomic(m)
    lhs, rhs = qbinom(n, k), q_lucas_rhs(n, k, m)
    assert congruent_mod(lhs, rhs, mod) and divides(mod.phi, lhs - rhs)
    # q^j is a unit, so adding it breaks every congruence
    control = rhs + LaurentPoly.q_power(j)
    assert not congruent_mod(lhs, control, mod)
    assert not divides(mod.phi, lhs - control)


# -- sums, negation, scaling and monomial products --------------------------
#
# The references are the per-coefficient loops these operations ran before
# they became slice and ``map`` operations, copied verbatim.


def reference_add(self, other):
    if isinstance(other, int):
        other = LaurentPoly(0, (other,))
    if not isinstance(other, LaurentPoly):
        return NotImplemented
    if not self.coeffs:
        return other
    if not other.coeffs:
        return self
    lo = min(self.val, other.val)
    hi = max(self.degree(), other.degree())
    coeffs = [0] * (hi - lo + 1)
    for i, c in enumerate(self.coeffs):
        coeffs[self.val + i - lo] += c
    for i, c in enumerate(other.coeffs):
        coeffs[other.val + i - lo] += c
    return LaurentPoly(lo, coeffs)


def reference_neg(self):
    return LaurentPoly(self.val, tuple(-c for c in self.coeffs))


def reference_scale(self, other):
    return LaurentPoly(self.val, tuple(c * other for c in self.coeffs))


def assert_canonical(p):
    assert type(p) is LaurentPoly and type(p.coeffs) is tuple
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.val == 0


# Zero and units are where the new branches are taken; both signs throughout.
edge_coefficient = st.one_of(st.sampled_from([0, 1, -1]), coefficient)
# Lengths 0..48 and valuations down to -60, so sums overlap, nest and leave
# gaps, and leading or trailing terms cancel.
short_laurent = st.builds(
    LaurentPoly, st.integers(-60, 60), st.lists(edge_coefficient, max_size=48)
)
scalar = st.one_of(st.sampled_from([0, 1, -1]), coefficient)
monomial = st.builds(
    LaurentPoly.q_power,
    st.integers(-60, 60),
    st.one_of(st.sampled_from([1, -1]), st.integers(-(2**200), 2**200).filter(bool)),
)


@settings(max_examples=400, deadline=None)
@given(short_laurent, short_laurent, scalar)
def test_sum_and_negation_are_the_coefficient_loops(a, b, c):
    for value, expect in (
        (a + b, reference_add(a, b)),
        (b + a, reference_add(b, a)),
        (a + (-a), ZERO),
        (a + c, reference_add(a, c)),
        (c + a, reference_add(a, c)),
        (-a, reference_neg(a)),
        (a - b, reference_add(a, reference_neg(b))),
        (c - a, reference_add(reference_neg(a), c)),
    ):
        assert value == expect
        assert_canonical(value)


@settings(max_examples=300, deadline=None)
@given(short_laurent, scalar)
def test_scaling_is_the_coefficient_loop(a, c):
    expect = reference_scale(a, c)
    for value in (a * c, c * a):
        assert value == expect
        assert_canonical(value)
    if c == 1:
        assert a * c is a


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-60, 60),
    st.lists(edge_coefficient, max_size=24),
    st.booleans(),
    scalar,
    st.integers(-60, 60),
)
def test_scaling_a_palindrome_shares_its_mirrored_ints(val, half, odd, c, e):
    a = LaurentPoly(val, half + half[::-1][odd:])
    for value, expect in (
        (a * c, reference_scale(a, c)),
        (a * LaurentPoly.q_power(e, c), reference_scale(a, c).shift(e)),
        (LaurentPoly.q_power(e, c) * a, reference_scale(a, c).shift(e)),
    ):
        assert value == expect
        assert_canonical(value)
        if c != 1:
            assert all(x is y for x, y in zip(value.coeffs, reversed(value.coeffs)))


@settings(max_examples=200, deadline=None)
@given(short_laurent.filter(lambda p: p.coeffs))
def test_sums_and_products_share_an_operand_that_is_left_unchanged(a):
    for value in (a + ZERO, ZERO + a, a + 0, 0 + a, a - ZERO, a - 0, a * 1, 1 * a):
        assert value is a
    for value in (ZERO - a, 0 - a):
        assert value == -a
        assert_canonical(value)
    assert a * 0 is ZERO and 0 * a is ZERO and a * ZERO is ZERO


@settings(max_examples=300, deadline=None)
@given(short_laurent, monomial)
def test_monomial_product_scales_and_shifts(a, x):
    expect = reference_scale(a, x.coeffs[0]).shift(x.val)
    for value in (a * x, x * a):
        assert value == expect
        assert_canonical(value)
        if a.coeffs:
            assert value == LaurentPoly(a.val + x.val, _schoolbook_mul(a.coeffs, x.coeffs))
            if x.coeffs == (1,) and len(a.coeffs) > 1:
                assert value.coeffs is a.coeffs


@settings(max_examples=200, deadline=None)
@given(short_laurent, short_laurent, short_laurent)
def test_ring_laws(a, b, c):
    for value, expect in (
        (a + b, b + a),
        ((a + b) + c, a + (b + c)),
        (a + ZERO, a),
        (a - a, ZERO),
        (a * b, b * a),
        ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c),
        ((a + b) * c, a * c + b * c),
        (a * ONE, a),
        (a * ZERO, ZERO),
        (a * -1, -a),
        (-(a * b), (-a) * b),
    ):
        assert value == expect
        assert_canonical(value)
