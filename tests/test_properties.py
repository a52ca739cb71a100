"""Property tests: the fast L0 paths against the reference paths they replace.

The Kronecker product must equal the schoolbook convolution exactly, and the
folded test for congruence modulo Phi_m must give the verdict of dividing the
difference by Phi_m.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qneg.congruence import q_lucas_rhs
from qneg.laurent import (
    KRONECKER_MIN_LEN,
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
# Lengths on both sides of the crossover.
coeff_list = st.lists(coefficient, min_size=1, max_size=3 * KRONECKER_MIN_LEN).filter(any)
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
