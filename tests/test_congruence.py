"""Digit expansions and Lucas congruences, integer and q-analog."""

import random

import pytest

from qneg import cli
from qneg.congruence import (
    is_prime,
    lucas_product,
    padic_digits,
    q_lucas_rhs,
    verify_lucas,
    verify_q_lucas,
)
from qneg import laurent
from qneg.laurent import LaurentPoly, congruent_mod, cyclotomic, divides
from qneg.qbinom import binom, qbinom


def L(terms):
    return LaurentPoly.from_terms(terms)


# -- digits --------------------------------------------------------------------


def test_digit_split_rejects_bad_base():
    with pytest.raises(ValueError):
        padic_digits(5, 0)


def test_padic_digits_examples():
    d = padic_digits(-11, 7)
    assert d.preperiodic == (3, 5) and d.eventual == 6
    d = padic_digits(10, 7)
    assert d.preperiodic == (3, 1) and d.eventual == 0
    d = padic_digits(-1, 7)
    assert d.preperiodic == () and d.eventual == 6
    assert [padic_digits(-11, 7).digit(i) for i in range(5)] == [3, 5, 6, 6, 6]


def test_padic_digits_reconstruct():
    for n in range(-200, 200):
        for base in (2, 3, 7, 10):
            d = padic_digits(n, base)
            if n >= 0:
                assert d.eventual == 0
                value = sum(c * base**i for i, c in enumerate(d.preperiodic))
                assert value == n
            else:
                assert d.eventual == base - 1
                # n = transient + (eventual tail) = transient - base^len
                width = len(d.preperiodic)
                value = sum(c * base**i for i, c in enumerate(d.preperiodic))
                assert value - base**width == n


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for p in range(-3, 30):
        assert is_prime(p) == (p in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def is_prime_by_trial_division(p):
    """The trial-division test Miller-Rabin replaced, kept as an oracle."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division_below_1e5():
    # __wrapped__ skips the cache, which would only hold the last 4096
    for p in range(-2, 10**5):
        assert is_prime.__wrapped__(p) == is_prime_by_trial_division(p), p


@pytest.mark.parametrize(
    "p, prime",
    [
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, False),  # ... to the first nine prime bases
        (318665857834031151167461, False),  # ... to the first twelve
        (211 * 421 * 631, False),  # a Carmichael number, all factors past 41
        (1000000000000000003, True),
        (2**61 - 1, True),
        (3317044064679887385961813, True),  # the largest prime below the bound
        (3317044064679887385961980, False),
    ],
)
def test_is_prime_on_pseudoprimes_and_large_primes(p, prime):
    assert is_prime(p) is prime
    if p < 10**12:
        assert is_prime_by_trial_division(p) is prime


def test_is_prime_refuses_past_its_proven_bound():
    # 3317044064679887385961981 is a strong pseudoprime to the first 13
    # prime bases, the smallest there is
    for p in (3317044064679887385961981, 2**89 - 1, 10**30):
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(p)


# -- integer Lucas ------------------------------------------------------------------


def test_lucas_product_golden():
    assert lucas_product(-11, -19, 7) == 1


def test_lucas_product_base_three():
    assert lucas_product(-4, -8, 3) == 2
    assert binom(-4, -8) % 3 == 2
    assert binom(-4, -8) == 35


def test_lucas_product_single_digit():
    for p in (5, 7):
        for n in range(p):
            for k in range(p):
                assert lucas_product(n, k, p) == binom(n, k) % p


def test_lucas_product_rejects_composite():
    with pytest.raises(ValueError):
        lucas_product(5, 2, 6)
    with pytest.raises(ValueError):
        verify_lucas(5, 2, 1)


def test_verify_lucas_examples():
    assert verify_lucas(-11, -19, 7)
    assert verify_lucas(-4, -8, 3)
    assert verify_lucas(5, 2, 7)


def test_lucas_matches_the_digit_split_formulation():
    # the formulation before digits became math.comb of divmod pairs: the
    # binomial of the digits through the region reflections of binom
    def lucas_product_by_splits(n, k, p):
        acc = 1
        while not (n in (0, -1) and k in (0, -1)):
            (n, n0), (k, k0) = divmod(n, p), divmod(k, p)
            acc = acc * binom(n0, k0) % p
        return acc * binom(0 if n == 0 else p - 1, 0 if k == 0 else p - 1) % p

    def verify_lucas_by_splits(n, k, p):
        (n1, n0), (k1, k0) = divmod(n, p), divmod(k, p)
        rhs = binom(n0, k0) * binom(n1, k1)
        return (binom(n, k) - rhs) % p == 0

    for p in (2, 3, 5, 7, 11, 13):
        for n in range(-60, 61):
            for k in range(-60, 61):
                assert lucas_product(n, k, p) == lucas_product_by_splits(n, k, p), (n, k, p)
                assert verify_lucas(n, k, p) is verify_lucas_by_splits(n, k, p), (n, k, p)
        for n in range(-30, 31, 7):
            for k in range(-30, 31, 5):
                (n1, n0), (k1, k0) = divmod(n, p), divmod(k, p)
                expected = qbinom(n0, k0) * binom(n1, k1)
                assert q_lucas_rhs(n, k, p) == expected, (n, k, p)


def test_lucas_sweep_small():
    for p in (2, 3, 5):
        for n in range(-20, 21):
            for k in range(-20, 21):
                assert verify_lucas(n, k, p), (n, k, p)
                assert lucas_product(n, k, p) == binom(n, k) % p, (n, k, p)


# -- q-Lucas ----------------------------------------------------------------------


def test_q_lucas_rhs_golden():
    assert q_lucas_rhs(-4, -8, 3) == L({0: -2, 1: -2})


def test_q_lucas_rhs_single_digit():
    for m in (2, 5):
        for n in range(m):
            for k in range(m):
                assert q_lucas_rhs(n, k, m) == qbinom(n, k)


def test_q_lucas_rhs_derived_example():
    assert q_lucas_rhs(-11, -19, 7) == qbinom(3, 2) * -2
    assert q_lucas_rhs(-11, -19, 7) == L({0: -2, 1: -2, 2: -2})


def test_verify_q_lucas_examples():
    assert verify_q_lucas(-4, -8, 3)
    assert verify_q_lucas(5, 2, 4)
    for m in (3, 4):
        for n in range(m):
            for k in range(m):
                assert verify_q_lucas(n, k, m)


def test_verify_q_lucas_composite_modulus():
    for m in (4, 6, 8, 9):
        for n in range(-8, 9):
            for k in range(-8, 9):
                assert verify_q_lucas(n, k, m), (n, k, m)


def test_folded_congruence_matches_division_on_the_default_sweep():
    # every case of `qneg verify qlucas`, and each one shifted off by q^j
    for m in range(2, 10):
        mod = cyclotomic(m)
        for n in range(-15, 16):
            for k in range(-15, 16):
                lhs, rhs = qbinom(n, k), q_lucas_rhs(n, k, m)
                assert congruent_mod(lhs, rhs, mod) and divides(mod.phi, lhs - rhs)
                control = rhs + LaurentPoly.q_power(n - k)
                assert not congruent_mod(lhs, control, mod)
                assert not divides(mod.phi, lhs - control)


def test_folded_congruence_divides_no_more_than_the_difference(monkeypatch):
    # phi(2310) = 480 and phi(30030) = 5760; a dividend or a fold of m
    # coefficients would cost about (m - phi(m)) * phi(m) steps or m
    # allocations however short the two polynomials are
    lengths, folds = [], []
    divmod_monic, fold = laurent._divmod_monic, laurent._fold

    def recording_divmod(num, den):
        lengths.append(len(num))
        return divmod_monic(num, den)

    def recording_fold(*args):
        folds.append(fold(*args))
        return folds[-1]

    monkeypatch.setattr(laurent, "_divmod_monic", recording_divmod)
    monkeypatch.setattr(laurent, "_fold", recording_fold)
    for m in (2310, 30030):
        mod = cyclotomic(m)
        short = [
            (qbinom(-3, 2), LaurentPoly(-4, (1, 2, 1))),
            (LaurentPoly(-5, (1, 0, 3)), LaurentPoly(-2, (7,))),
            (LaurentPoly(-2, (1, 2, 3, 4)), LaurentPoly(1, (5,))),  # spans q^0
            (LaurentPoly(-5, (1, 0, 3)), LaurentPoly(0, ())),
        ]
        # q^m = 1 modulo Phi_m decides these two; long division of a - b by
        # Phi_30030 would take seconds
        wide = [
            (LaurentPoly(0, ()), LaurentPoly(m - 3, (2, 5)), False),
            (LaurentPoly(-1, (1,)), LaurentPoly(m - 1, (1,)), True),  # q^-1 == q^(m-1)
        ]
        for a, b, expected in [(a, b, divides(mod.phi, a - b)) for a, b in short] + wide:
            lengths.clear()
            folds.clear()
            assert congruent_mod(a, b, mod) == expected
            assert all(length <= len((a - b).coeffs) for length in lengths)
            if (a, b) in short:
                assert len(folds) == 2
                assert all(len(f) <= len((a - b).coeffs) for f in folds)


def _seeded_multiples(m, count):
    """`count` seeded residues modulo q^m - 1 of Phi_m times a polynomial
    of degree below m with coefficients in -9..9, then one more whose
    multiplier's coefficients alternate in sign between 2**64 and 2**128."""
    rng = random.Random(m)
    phi = cyclotomic(m).phi
    for _ in range(count):
        g = LaurentPoly(0, [rng.randint(-9, 9) for _ in range(rng.randint(1, m))])
        yield laurent._fold(phi * g, m, 0, m)
    g = [(-1) ** i * rng.randint(2**64, 2**128) for i in range(rng.randint(2, m))]
    yield laurent._fold(phi * LaurentPoly(0, g), m, 0, m)


@pytest.mark.parametrize("m", [*range(2, 131), 210, 330, 1155, 2310])
def test_annihilator_agrees_with_long_division(m):
    # m runs over every prime power up to 128 and over omega(m) up to 5;
    # each multiple plus q^j, for every slot j, is a negative control, and
    # the last multiple's slots pass 8 bytes
    phi = cyclotomic(m).phi.coeffs
    primes = laurent._prime_factors(m)
    # long division of a residue of m = 1155 or 2310 slots takes 0.1 to 0.3 s,
    # so there it checks seeded slots and not all of them
    large = m > 330
    checked = random.Random(-m).sample(range(m), 4) if large else range(m)
    *_, wide = multiples = list(_seeded_multiples(m, 1 if large else 2))
    assert max(map(abs, wide)) > 2**64
    for r in multiples:
        # the packed annihilator, as freshman's dream runs it, at a width
        # that holds E times every control
        w = (max(map(abs, r)) + 1).bit_length() + len(primes) + 2
        packed = sum(c << w * i for i, c in enumerate(r))
        assert laurent._phi_divides_residue(list(r), m)
        assert laurent._annihilates(packed, m, w, primes)
        assert not any(laurent._divmod_monic(r, phi)[1])
        for j in range(m):
            control = list(r)
            control[j] += 1
            assert not laurent._phi_divides_residue(control, m), j
            assert not laurent._annihilates(packed + (1 << w * j), m, w, primes), j
            if j in checked:
                assert any(laurent._divmod_monic(control, phi)[1]), j


@pytest.mark.parametrize("m", [m for m in range(4, 131) if not is_prime(m)])
def test_annihilator_pads_every_length_between_phi_and_m(m):
    # a residue longer than phi(m) and shorter than m is padded to m slots
    # before the annihilator rotates it; prime m has no such length
    phi = laurent.cyclotomic_poly(m)
    primes = laurent._prime_factors(m)
    lengths = range(len(phi.coeffs), m)
    assert lengths
    for length in lengths:
        multiple = [0] * (length - len(phi.coeffs)) + list(phi.coeffs)
        last, first = multiple.copy(), multiple.copy()
        last[-1] += 1
        first[0] += 1
        for r, expected in ((multiple, True), (last, False), (first, False)):
            assert len(r) == length
            assert laurent._phi_divides_residue(r, m) is expected, (length, r)
            # the annihilator alone, at a bit width below a whole byte, as
            # freshman's dream packs its residues
            w = max(map(abs, r)).bit_length() + len(primes) + 2
            packed = sum(c << w * i for i, c in enumerate(r))
            assert laurent._annihilates(packed, m, w, primes) is expected, (length, r)
            assert divides(phi, LaurentPoly(0, r)) is expected, (length, r)


def test_congruent_mod_decides_qlucas_without_long_division(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("long division or packing called")

    monkeypatch.setattr(laurent, "_divmod_monic", refuse)
    monkeypatch.setattr(laurent, "_pack", refuse)
    assert cli.main(["verify", "qlucas", "--m", "2..12", "--n", "-12..12", "--k", "-12..12"]) == 0
    assert capsys.readouterr().out == "checked 6875, passed 6875\n"
    for m in (6, 12, 30):
        assert congruent_mod(qbinom(-40, 17), q_lucas_rhs(-40, 17, m), cyclotomic(m))
    # folded differences whose slots pass 8 bytes
    for m in (30, 64):
        assert congruent_mod(qbinom(200, 66), q_lucas_rhs(200, 66, m), cyclotomic(m))


def test_congruent_mod_confirms_each_rejection_by_long_division(monkeypatch):
    lengths, divmod_monic = [], laurent._divmod_monic

    def recording_divmod(num, den):
        lengths.append(len(num))
        return divmod_monic(num, den)

    monkeypatch.setattr(laurent, "_divmod_monic", recording_divmod)
    for m in (6, 12, 30):
        lhs, rhs = qbinom(-40, 17), q_lucas_rhs(-40, 17, m)
        assert not congruent_mod(lhs, rhs + LaurentPoly.q_power(m + 5), cyclotomic(m))
        assert lengths.pop() <= m and not lengths
    # an annihilator that rejected a true congruence would be caught
    monkeypatch.setattr(laurent, "_phi_divides_residue", lambda r, m: False)
    with pytest.raises(laurent.InvariantError):
        congruent_mod(qbinom(-40, 17), q_lucas_rhs(-40, 17, 6), cyclotomic(6))


def test_q_lucas_builds_no_cyclotomic_polynomial(monkeypatch):
    def refuse(m):
        raise AssertionError("Phi_m built")

    monkeypatch.setattr(laurent, "cyclotomic_poly", refuse)
    assert cyclotomic(30030).m == 30030
    assert verify_q_lucas(5, 2, 30030) and verify_q_lucas(-40, 17, 30)


def test_q_lucas_rejects_small_modulus():
    with pytest.raises(ValueError):
        q_lucas_rhs(1, 1, 1)
    with pytest.raises(ValueError):
        verify_q_lucas(1, 1, 0)


def test_q_lucas_specializes_to_lucas_at_prime_modulus():
    # setting q = 1 in both sides of the q-congruence recovers the integer one
    for p in (3, 5):
        mod = cyclotomic(p)
        for n in range(-10, 11):
            for k in range(-10, 11):
                lhs = qbinom(n, k).eval_at_one()
                rhs = q_lucas_rhs(n, k, p).eval_at_one()
                assert lhs == binom(n, k)
                assert (lhs - rhs) % p == 0
                assert mod.phi.eval_at_one() == p
