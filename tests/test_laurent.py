"""Laurent polynomial arithmetic, cyclotomic polynomials, divisibility."""

import json
import math
import random
import weakref

import pytest

from qneg import laurent
from qneg.laurent import (
    ONE,
    ZERO,
    InvariantError,
    LaurentPoly,
    congruent_mod,
    cyclotomic,
    cyclotomic_poly,
    divides,
)
from qneg.qbinom import qbinom


def L(terms):
    return LaurentPoly.from_terms(terms)


def random_poly(rng, span=6, size=4, bound=9):
    return L({rng.randint(-span, span): rng.randint(-bound, bound) for _ in range(size)})


# -- canonical form ---------------------------------------------------------


def test_canonical_trims_zeros():
    assert LaurentPoly(-2, (0, 0, 3, 1, 0)) == LaurentPoly(0, (3, 1))
    assert LaurentPoly(5, (0, 0)) == ZERO
    assert LaurentPoly(3, ()).val == 0


class SubPoly(LaurentPoly):
    __slots__ = ()


def test_equality_and_hash_are_structural_within_the_class():
    # the rules of a dataclass(eq=True, unsafe_hash=True) on (val, coeffs)
    rng = random.Random(3)
    polys = [random_poly(rng) for _ in range(40)] + [ZERO, ONE, L({-1: 1})]
    for a in polys:
        for b in polys:
            same = (a.val, a.coeffs) == (b.val, b.coeffs)
            assert (a == b) is same and (a != b) is not same
        assert hash(a) == hash((a.val, a.coeffs))
        assert hash(LaurentPoly(a.val, a.coeffs)) == hash(a)
        assert a.__eq__((a.val, a.coeffs)) is NotImplemented
        assert a != (a.val, a.coeffs) and a != a.eval_at_one()
        twin = SubPoly(a.val, a.coeffs)
        assert a != twin and twin != a and twin == SubPoly(a.val, a.coeffs)
    assert len({LaurentPoly(0, (1, 2)), L({0: 1, 1: 2}), LaurentPoly(1, (1, 2))}) == 2
    with pytest.raises(AttributeError):
        ONE.extra = 1  # slots: no per-instance dict


def test_zero_polynomial_is_unique():
    assert L({}) == ZERO
    assert L({4: 0}) == ZERO
    assert ZERO.is_zero() and not ONE.is_zero()


def test_degree_and_valuation():
    p = L({-3: 1, 2: 5})
    assert p.valuation() == -3
    assert p.degree() == 2
    assert p.coefficient(-3) == 1 and p.coefficient(0) == 0 and p.coefficient(2) == 5


def test_coefficient_outside_the_span_is_zero():
    p = L({-3: 1, 2: 5})
    assert [p.coefficient(e) for e in (-4, 3, -(10**20), 10**20)] == [0, 0, 0, 0]
    assert ZERO.coefficient(0) == 0


# -- arithmetic -------------------------------------------------------------


def test_add_identity_and_inverse():
    p = L({0: 1, 1: 1})
    assert p + ZERO == p
    assert L({-1: 1}) + L({-1: -1}) == ZERO
    assert L({0: 1, 1: 1, 2: 2}) + L({2: 1}) == L({0: 1, 1: 1, 2: 3})


def test_mul_worked_example():
    # (1 + q^2)(1 + q + q^2) expands to the numerator of the (-3, -5) coefficient
    assert L({0: 1, 2: 1}) * L({0: 1, 1: 1, 2: 1}) == L({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_mul_annihilator_and_monomial_shift():
    p = L({-2: 3, 1: 7})
    assert p * ZERO == ZERO
    assert LaurentPoly.q_power(-7) * L({0: 1, 1: 1}) == L({-7: 1, -6: 1})


def test_shift():
    assert L({0: 1, 1: 1}).shift(-1) == L({-1: 1, 0: 1})
    assert ZERO.shift(5) == ZERO
    assert L({0: 1, 1: 1, 2: 2}).shift(3) == L({3: 1, 4: 1, 5: 2})


def test_arithmetic_with_a_foreign_operand_raises_type_error():
    p = L({0: 1, 1: 2})
    with pytest.raises(TypeError):
        p + 1.5
    with pytest.raises(TypeError):
        1.5 - p
    with pytest.raises(TypeError):
        p * "x"


def test_eval_at_one():
    assert qbinom(-3, 2).eval_at_one() == 6
    assert ZERO.eval_at_one() == 0
    assert (L({0: 1, 1: 1}) * -2).eval_at_one() == -4


def test_substitute_qinv():
    assert L({0: 1, 1: 1}).substitute_qinv() == L({-1: 1, 0: 1})
    assert L({-3: 1, -5: 2}).substitute_qinv() == L({3: 1, 5: 2})
    assert ZERO.substitute_qinv() == ZERO


def test_inflate():
    p = L({-1: 2, 3: 1})
    assert p.inflate(2) == L({-2: 2, 6: 1})
    assert p.inflate(-1) == p.substitute_qinv()
    with pytest.raises(ValueError):
        p.inflate(0)


def test_ring_laws_on_random_inputs():
    rng = random.Random(20180207)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        for value in (a + b, a * b, a - c):
            if not value.is_zero():
                assert value.coeffs[0] != 0 and value.coeffs[-1] != 0


def test_pow():
    p = L({0: 1, 1: 1})
    assert p**0 == ONE
    assert p**3 == L({0: 1, 1: 3, 2: 3, 3: 1})
    with pytest.raises(ValueError):
        p**-1


# -- cyclotomic polynomials ---------------------------------------------------


def test_cyclotomic_small_values():
    assert cyclotomic_poly(3) == L({0: 1, 1: 1, 2: 1})
    assert cyclotomic_poly(6) == L({0: 1, 1: -1, 2: 1})
    assert cyclotomic_poly(7) == L({e: 1 for e in range(7)})


def totient(m):
    return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)


def prime_power_base(m):
    for p in range(2, m + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


@pytest.mark.parametrize("m", range(2, 31))
def test_cyclotomic_structure(m):
    phi = cyclotomic_poly(m)
    assert phi.valuation() == 0
    assert phi.is_monic()
    assert phi.coefficient(0) == 1
    assert phi.degree() == totient(m)
    assert phi.is_self_reciprocal()
    base = prime_power_base(m)
    assert phi.eval_at_one() == (base if base is not None else 1)


def test_cyclotomic_cache_concurrent_fill():
    import threading

    results = []

    def worker():
        results.append([cyclotomic_poly(m) for m in range(1, 40)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)


def test_a_read_of_phi_leaves_nothing_held():
    phi = cyclotomic(97).phi
    ref = weakref.ref(phi)
    del phi
    assert ref() is None


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_product_is_qm_minus_one(m):
    prod = ONE
    for d in range(1, m + 1):
        if m % d == 0:
            prod = prod * cyclotomic_poly(d)
    assert prod == LaurentPoly.q_power(m) - ONE


def cyclotomic_by_division(m):
    # the recursion Phi_m = (q^m - 1) / prod of Phi_d over proper divisors d,
    # by long division, uncached: the oracle for the Moebius product
    if m == 1:
        return LaurentPoly(0, (-1, 1))
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = ONE
    for d in range(1, m):
        if m % d == 0:
            den = den * cyclotomic_by_division(d)
    quot, rem = laurent._divmod_monic(num, den.coeffs)
    assert not any(rem)
    return LaurentPoly(0, quot)


def test_cyclotomic_matches_the_division_recursion():
    for m in range(1, 401):
        assert cyclotomic_poly(m) == cyclotomic_by_division(m), m


def test_cyclotomic_at_six_primes():
    # 30030 = 2*3*5*7*11*13; the division recursion took about 26 s here
    phi = cyclotomic_poly(30030)
    assert phi.valuation() == 0 and phi.degree() == 5760
    assert phi.is_monic() and phi.is_self_reciprocal()
    assert phi.eval_at_one() == 1


def test_cyclotomic_rejects_bad_m():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        cyclotomic_poly(-3)
    with pytest.raises(ValueError):
        cyclotomic(1)
    assert cyclotomic(4).m == 4
    assert cyclotomic(4).phi == cyclotomic_poly(4)


def test_cyclotomic_division_rejects_a_remainder(monkeypatch):
    # with the divisions by 1 - q^d left out, Phi_6 is taken as
    # (1 - q^6)(1 - q), whose top coefficients are a remainder
    monkeypatch.setattr(laurent, "_divide_by_one_minus_q_power", lambda coeffs, d: None)
    with pytest.raises(InvariantError, match="cyclotomic division left a remainder at m=6"):
        cyclotomic_poly(6)


# -- divisibility -------------------------------------------------------------


def test_divides_basic():
    phi3 = cyclotomic_poly(3)
    assert divides(phi3, LaurentPoly.q_power(3) - ONE)
    assert not divides(phi3, L({0: 1, 1: 1}))
    assert divides(phi3, ZERO)


def test_divides_qbinom_difference():
    # qbinom(-4, -8) differs from -2(1+q) by a multiple of Phi_3
    diff = qbinom(-4, -8) - L({0: -2, 1: -2})
    assert divides(cyclotomic_poly(3), diff)


def test_divides_rejects_non_monic():
    with pytest.raises(ValueError):
        divides(L({0: 1, 1: 2}), ONE)  # leading coefficient 2
    with pytest.raises(ValueError):
        divides(L({1: 1}), ONE)  # valuation 1
    with pytest.raises(ValueError):
        divides(ZERO, ONE)


def test_divides_is_linear_and_multiplicative():
    rng = random.Random(43758)
    d = cyclotomic_poly(5)
    for _ in range(50):
        a = d * random_poly(rng)
        b = d * random_poly(rng)
        c = random_poly(rng)
        assert divides(d, a + b)
        assert divides(d, a - b)
        assert divides(d, a * c)


def test_congruent_mod():
    mod3 = cyclotomic(3)
    assert congruent_mod(qbinom(-4, -8), L({0: -2, 1: -2}), mod3)
    p = L({-2: 5, 0: 1})
    assert congruent_mod(p, p, cyclotomic(9))
    for m in range(2, 12):
        assert congruent_mod(ONE, LaurentPoly.q_power(m), cyclotomic(m))
        assert divides(cyclotomic_poly(m), LaurentPoly.q_power(m) - ONE)


# -- rendering ----------------------------------------------------------------


def test_text_format_goldens():
    assert str(qbinom(-3, -5)) == "q^-7 + q^-6 + 2*q^-5 + q^-4 + q^-3"
    assert str(L({0: -2, 1: -2})) == "-2 - 2*q"
    assert str(cyclotomic_poly(6)) == "1 - q + q^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(L({1: 1})) == "q"
    assert str(L({1: 3})) == "3*q"
    assert str(L({-1: -1, 0: 2})) == "-q^-1 + 2"


def test_json_round_trip():
    for p in (ZERO, ONE, qbinom(-3, -5), L({-4: -12345678901234567890, 3: 7})):
        data = json.loads(json.dumps(p.to_json_dict()))
        assert LaurentPoly.from_json_dict(data) == p
    assert qbinom(-3, -5).to_json_dict() == {
        "valuation": -7,
        "coefficients": ["1", "1", "2", "1", "1"],
    }
