"""Expansions in q-commuting variables x, y with yx = qxy.

Normal-ordered powers (x+y)^n exist for every integer n once expansions in
inverse powers are admitted: around "x = 0" the exponent k of x ascends from
0, around "x = infinity" it descends from n.  The coefficient of x^k y^(n-k)
in the appropriate expansion is exactly qbinom(n, k), and that equality,
together with the commutative q-binomial theorem for the shifted factorial
(-x; q)_n, is what this module computes and verifies.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable

from . import _public
from .laurent import (
    ONE,
    ZERO,
    InvariantError,
    LaurentPoly,
    _annihilates,
    _confirm_rejection,
    _prime_factors,
    _products_sum,
    _products_sum_equals,
    _residue_slots,
    _rotation,
)
from .qbinom import qbinom

__all__ = _public(__name__)


class Direction(enum.Enum):
    """Which Laurent-type expansion of (x+y)^n a series represents."""

    FROM_ZERO = "from-zero"          # k = 0, 1, 2, ...
    FROM_INFINITY = "from-infinity"  # k = n, n-1, n-2, ...


class NormalSeries(
    namedtuple("NormalSeries", ["n", "direction", "terms", "truncation"])
):
    """A truncated normal-ordered expansion of total degree n: the stored
    value at key k is the Laurent-polynomial coefficient of x^k y^(n-k).

    The retained window holds `truncation` consecutive values of k starting
    from 0 (FROM_ZERO) or from n downward (FROM_INFINITY); coefficients are
    never reported outside it.  For n >= 0 both directions carry the same
    finite polynomial.
    """

    __slots__ = ()

    def window(self) -> tuple[int, int]:
        """Inclusive (low, high) bounds of the retained k-window."""
        if self.direction is Direction.FROM_ZERO:
            return 0, self.truncation - 1
        return self.n - self.truncation + 1, self.n

    def coefficient(self, k: int) -> LaurentPoly:
        """The coefficient of x^k y^(n-k); zero if absent but inside the
        window, an error outside it (the expansion says nothing there)."""
        lo, hi = self.window()
        if not lo <= k <= hi:
            raise ValueError(
                f"k={k} outside the retained window [{lo}, {hi}] "
                f"of the {self.direction.value} expansion"
            )
        return self.terms.get(k, ZERO)


def series_mul(a: NormalSeries, b: NormalSeries) -> NormalSeries:
    """Product of two expansions of the same direction, normal-ordered via
    y^s x^t = q^(st) x^t y^s and truncated to the common reliable window:
    the least truncation of a factor that is not exact, or the whole
    support when both are.  A nonnegative power whose window covers its
    support, k <= n, is exact: its coefficients are known for every k."""
    if a.direction is not b.direction:
        raise ValueError("cannot multiply expansions of different directions")
    inexact = (s.truncation for s in (a, b) if s.n < 0 or s.truncation <= s.n)
    truncation = min(inexact, default=a.n + b.n + 1)
    n = a.n + b.n
    out: dict[int, LaurentPoly] = {}
    for k, ak in a.terms.items():
        for j, bj in b.terms.items():
            # x^k y^(a.n-k) x^j y^(b.n-j): the y-block crosses x^j.
            coeff = (ak * bj).shift((a.n - k) * j)
            m = k + j
            out[m] = out.get(m, ZERO) + coeff
    lo, hi = NormalSeries(n, a.direction, None, truncation).window()
    kept = {k: v for k, v in out.items() if lo <= k <= hi and not v.is_zero()}
    return NormalSeries(n, a.direction, kept, truncation)


def _factor_chain(
    n: int,
    truncation: int,
    exponent: Callable[[int, int], int],
    one=ONE,
    shift: Callable = LaurentPoly.shift,
) -> list:
    """The window c[0], c[1], ... of a chain of |n| two-term factors
    1 + q^s t, started from [one, 0, 0, ...] and cut to `truncation`
    entries, or for n >= 0 to the support i <= n if that is shorter.  The
    entries are `LaurentPoly` values, or integers, residues modulo q^m - 1
    packed at q = 2**w, from the unit residue 1 and the rotation
    `laurent._rotation(m, w)` as `shift`, which multiplies by q^s.

    For n >= 0 factors j = 0..n-1 multiply: c[i] gains q^s c[i-1], with i
    descending so that c[i-1] is still the old entry.  For n < 0 factors
    j = -1, -2, ..., n divide: c[i] becomes c[i] - q^s c[i-1], with i
    ascending so that c[i-1] is already the quotient's.  The exponent is
    s = exponent(j, i).  No factor changes c[0] = one, so a window of that
    one entry takes no pass.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    size = truncation if n < 0 else min(truncation, n + 1)
    c = [one] + [one - one] * (size - 1)
    passes = abs(n) if size > 1 else 0
    if n >= 0:
        for j in range(passes):
            for i in range(min(j + 1, size - 1), 0, -1):
                c[i] = c[i] + shift(c[i - 1], exponent(j, i))
    else:
        for j in range(-1, -passes - 1, -1):
            for i in range(1, size):
                c[i] = c[i] - shift(c[i - 1], exponent(j, i))
    return c


def _xy_exponent(j: int, i: int) -> int:
    """The exponent s of factor j at entry i in the chain of (x+y)^n."""
    return j + 1 - i


def power_xy(n: int, direction: Direction, truncation: int) -> NormalSeries:
    """The expansion of (x+y)^n in the given direction with the given window.

    It is a chain of |n| factors x+y, multiplied for n >= 0 and divided out
    for n < 0, with s = j + 1 - i.  From zero each factor multiplies on the
    right: g = f(x+y), f of degree N, gives g[k] = f[k] + q^(N+1-k) f[k-1].
    From infinity it multiplies on the left, and g = (x+y)f gives the same
    recurrence on the window read from k = n downward, so the direction only
    picks the key of entry i, k = i or k = n - i.

    >>> power_xy(-1, Direction.FROM_ZERO, 4).coefficient(3)
    LaurentPoly('-q^-6')
    """
    window = _factor_chain(n, truncation, _xy_exponent)
    from_zero = direction is Direction.FROM_ZERO
    terms = {i if from_zero else n - i: c for i, c in enumerate(window)}
    return NormalSeries(n, direction, terms, truncation)


class PowerSeriesInX(namedtuple("PowerSeriesInX", ["coefficients", "truncation"])):
    """A truncated power series in a commuting x with Laurent-polynomial
    coefficients; exponents live in [0, truncation)."""

    __slots__ = ()

    def coefficient(self, k: int) -> LaurentPoly:
        if not 0 <= k < self.truncation:
            raise ValueError(f"x-exponent {k} outside [0, {self.truncation})")
        return self.coefficients.get(k, ZERO)


def pochhammer_expansion(n: int, truncation: int) -> PowerSeriesInX:
    """The expansion of the shifted factorial (-x; q)_n in powers of x.

    For n >= 0 this is the finite product (1+x)(1+xq)...(1+xq^(n-1)); for
    n < 0 it is 1 / ((1+x/q)(1+x/q^2)...(1+x/q^|n|)), truncated: the
    chain of factors 1 + q^j x.  The x^k coefficient equals
    q^(k(k-1)/2) * qbinom(n, k) for every integer n.
    """
    window = _factor_chain(n, truncation, lambda j, i: j)
    return PowerSeriesInX(dict(enumerate(window)), truncation)


def _chu_sides(n: int, m: int, k: int) -> tuple[list[tuple[LaurentPoly, LaurentPoly, int]], LaurentPoly]:
    """The terms (qbinom(n, j), qbinom(m, k-j), (k-j)(n-j)) of the sum in
    `verify_chu_vandermonde`, vanishing ones included, and its right side."""
    if k >= 0:
        js = range(0, k + 1)
    elif n < 0 and m < 0:
        js = range(-1, k, -1)
    else:
        raise ValueError(
            "identity requires k >= 0, or n, m, k all negative"
        )
    terms = [(qbinom(n, j), qbinom(m, k - j), (k - j) * (n - j)) for j in js]
    return terms, qbinom(n + m, k)


def verify_chu_vandermonde(n: int, m: int, k: int) -> bool:
    """Check the generalized Chu-Vandermonde identity

        sum_j q^((k-j)(n-j)) qbinom(n, j) qbinom(m, k-j) = qbinom(n+m, k)

    with j = 0..k when k >= 0 (any integers n, m), or j = -1, -2, .., k+1
    when n, m, k are all negative.  Inputs in neither branch are rejected;
    the identity does not generally hold for mixed signs.  The two sides
    are compared as two integers, by `laurent._products_sum_equals`; a
    rejection is confirmed by the exact sum, `laurent._products_sum`, and a
    disagreement raises InvariantError.
    """
    terms, rhs = _chu_sides(n, m, k)
    if _products_sum_equals(terms, rhs):
        return True
    if _products_sum(terms) == rhs:
        raise InvariantError(f"packed and exact Chu-Vandermonde sums disagree at {(n, m, k)}")
    return False


def freshman_congruence(m: int) -> bool:
    """Check (x+y)^m = x^m + y^m modulo Phi_m(q): the boundary coefficients
    of the expansion equal 1 and every interior one is divisible by Phi_m.
    All m + 1 coefficients are read as residues modulo q^m - 1 from one
    chain of `power_xy`'s factors, packed at q = 2**w with
    w = m + omega(m) + 2 bits a slot: the residue of the coefficient at x^i has
    nonnegative slots summing to C(m, i) < 2**m, so each slot of it times
    the annihilator stays below 2**(w-1).  Both ends must be the unit
    residue: the first entry, which no factor changes, and the last, the
    product of the chain's diagonal, which sees a wrong diagonal exponent
    only modulo m.  A rejected interior residue is confirmed by long
    division of its slots."""
    if m < 2:
        raise ValueError(f"freshman congruence requires m >= 2, got {m}")
    primes = _prime_factors(m)
    w = m + len(primes) + 2
    chain = _factor_chain(m, m + 1, _xy_exponent, 1, _rotation(m, w))
    modulus = (1 << m * w) - 1
    if not chain[0] % modulus == chain[m] % modulus == 1:
        return False
    return all(
        _annihilates(c, m, w, primes) or _confirm_rejection(_residue_slots(c, m, w), m)
        for c in chain[1:m]
    )
