"""Lucas-type congruences for binomial coefficients with any integer entries.

The base-b expansion of a negative integer is infinite but eventually all
digits equal b-1, so digit-by-digit statements still make sense.  The integer
Lucas theorem holds modulo any prime p for all integers n and k; its q-analog
holds modulo the cyclotomic polynomial Phi_m(q) for any integer m >= 2, no
primality required.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from math import comb

from . import _public
from .laurent import LaurentPoly, congruent_mod, cyclotomic
from .qbinom import binom, qbinom

__all__ = _public(__name__)


class PadicDigits(namedtuple("PadicDigits", ["base", "preperiodic", "eventual"])):
    """Base-b digits, low digit first: a finite transient followed by a
    single digit repeating forever (0 for n >= 0, base-1 for n < 0)."""

    __slots__ = ()

    def digit(self, i: int) -> int:
        if i < len(self.preperiodic):
            return self.preperiodic[i]
        return self.eventual


def padic_digits(n: int, base: int) -> PadicDigits:
    """Expand n in base b until the quotient reaches its fixed point, 0 for
    nonnegative n or -1 for negative n.

    >>> padic_digits(-11, 7)
    PadicDigits(base=7, preperiodic=(3, 5), eventual=6)
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    digits: list[int] = []
    while n not in (0, -1):
        n, low = divmod(n, base)
        digits.append(low)
    return PadicDigits(base, tuple(digits), 0 if n == 0 else base - 1)


# The first 13 primes.  No odd composite below _PROVEN_BELOW is a strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86 (2017),
# 985-1003), and _PROVEN_BELOW itself is one.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BELOW = 3317044064679887385961981


@functools.lru_cache(maxsize=4096)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, proven for
    every p below 3317044064679887385961981 (about 3.3e24); from there on
    it raises ValueError instead of guessing.  Sweeps ask about the same
    few moduli many times, so answers are cached.

    >>> is_prime(1000000000000000003), is_prime(3215031751)
    (True, False)
    """
    if p >= _PROVEN_BELOW:
        raise ValueError(
            f"cannot decide whether {p} is prime: the test is proven only "
            f"below {_PROVEN_BELOW}"
        )
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def lucas_product(n: int, k: int, p: int) -> int:
    """The digit-wise product prod binom(n_i, k_i) mod p over the aligned
    base-p digit streams of n and k, reduced to [0, p).

    The infinite tail contributes a single factor: once both quotients reach
    their fixed points the digit pairs repeat as (0,0), (p-1,0) or
    (p-1,p-1), each with binomial 1, or as (0,p-1), whose binomial 0 kills
    the product.  One representative factor of the stable pair is therefore
    appended after the transients.  Every digit lies in [0, p), so each
    factor is an ordinary ``math.comb``.

    >>> lucas_product(-11, -19, 7)
    1
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    acc = 1
    while not (n in (0, -1) and k in (0, -1)):
        n, n0 = divmod(n, p)
        k, k0 = divmod(k, p)
        acc = acc * comb(n0, k0) % p
    stable_n = 0 if n == 0 else p - 1
    stable_k = 0 if k == 0 else p - 1
    return acc * comb(stable_n, stable_k) % p


def verify_lucas(n: int, k: int, p: int) -> bool:
    """Check the single-step Lucas congruence modulo the prime p:
    binom(n, k) = binom(n0, k0) * binom(n', k') where n = n0 + n'p and
    k = k0 + k'p with n0, k0 in [0, p).  The digits' binomial is an
    ordinary ``math.comb``; the high parts may be negative."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    n1, n0 = divmod(n, p)
    k1, k0 = divmod(k, p)
    rhs = comb(n0, k0) * binom(n1, k1)
    return (binom(n, k) - rhs) % p == 0


def q_lucas_rhs(n: int, k: int, m: int) -> LaurentPoly:
    """The right-hand side of the q-Lucas congruence: qbinom(n0, k0) scaled
    by the integer binom(n', k'), with the digit splits taken base m.

    >>> q_lucas_rhs(-4, -8, 3)
    LaurentPoly('-2 - 2*q')
    """
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    n1, n0 = divmod(n, m)
    k1, k0 = divmod(k, m)
    return qbinom(n0, k0) * binom(n1, k1)


def verify_q_lucas(n: int, k: int, m: int) -> bool:
    """Check qbinom(n, k) = qbinom(n0, k0) * binom(n', k') mod Phi_m(q).

    Unlike the integer statement, no primality of m is needed.
    """
    return congruent_mod(qbinom(n, k), q_lucas_rhs(n, k, m), cyclotomic(m))
