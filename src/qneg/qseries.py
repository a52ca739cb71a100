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

from .laurent import ONE, ZERO, LaurentPoly, congruent_mod, cyclotomic
from .qbinom import qbinom

__all__ = [
    "Direction",
    "NormalSeries",
    "PowerSeriesInX",
    "series_mul",
    "power_xy",
    "pochhammer_expansion",
    "verify_chu_vandermonde",
    "freshman_congruence",
]


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

    def __mul__(self, other: NormalSeries) -> NormalSeries:
        return series_mul(self, other)

    def _is_exact(self) -> bool:
        # A nonnegative power whose window covers its full support is a
        # complete polynomial: its coefficients are known for every k.
        return self.n >= 0 and self.truncation >= self.n + 1


def _make_series(
    n: int, direction: Direction, terms: dict[int, LaurentPoly], truncation: int
) -> NormalSeries:
    lo = 0 if direction is Direction.FROM_ZERO else n - truncation + 1
    hi = truncation - 1 if direction is Direction.FROM_ZERO else n
    kept = {k: v for k, v in terms.items() if lo <= k <= hi and not v.is_zero()}
    return NormalSeries(n, direction, kept, truncation)


def series_mul(a: NormalSeries, b: NormalSeries) -> NormalSeries:
    """Product of two expansions of the same direction, normal-ordered via
    y^s x^t = q^(st) x^t y^s and truncated to the common reliable window."""
    if a.direction is not b.direction:
        raise ValueError("cannot multiply expansions of different directions")
    exact_a, exact_b = a._is_exact(), b._is_exact()
    if exact_a and exact_b:
        truncation = a.n + b.n + 1
    elif exact_a:
        truncation = b.truncation
    elif exact_b:
        truncation = a.truncation
    else:
        truncation = min(a.truncation, b.truncation)
    n = a.n + b.n
    out: dict[int, LaurentPoly] = {}
    for k, ak in a.terms.items():
        for j, bj in b.terms.items():
            # x^k y^(a.n-k) x^j y^(b.n-j): the y-block crosses x^j.
            coeff = (ak * bj).shift((a.n - k) * j)
            m = k + j
            out[m] = out.get(m, ZERO) + coeff
    return _make_series(n, a.direction, out, truncation)


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


def power_xy(n: int, direction: Direction, truncation: int) -> NormalSeries:
    """The expansion of (x+y)^n in the given direction with the given window.

    Nonnegative powers are exact binomial products; negative powers are built
    by repeated multiplication with the geometric-series expansion of
    (x+y)^-1 in the same direction.

    >>> power_xy(-1, Direction.FROM_ZERO, 4).coefficient(3)
    LaurentPoly('-q^-6')
    """
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
    n < 0 it is the product over j = 1..|n| of the geometric series
    sum_m (-1)^m x^m q^(-jm), truncated.  The x^k coefficient equals
    q^(k(k-1)/2) * qbinom(n, k) for every integer n.
    """
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


def verify_chu_vandermonde(n: int, m: int, k: int) -> bool:
    """Check the generalized Chu-Vandermonde identity

        sum_j q^((k-j)(n-j)) qbinom(n, j) qbinom(m, k-j) = qbinom(n+m, k)

    with j = 0..k when k >= 0 (any integers n, m), or j = -1, -2, .., k+1
    when n, m, k are all negative.  Inputs in neither branch are rejected;
    the identity does not generally hold for mixed signs.
    """
    if k >= 0:
        js = range(0, k + 1)
    elif n < 0 and m < 0:
        js = range(-1, k, -1)
    else:
        raise ValueError(
            "identity requires k >= 0, or n, m, k all negative"
        )
    total = ZERO
    for j in js:
        term = (qbinom(n, j) * qbinom(m, k - j)).shift((k - j) * (n - j))
        total = total + term
    return total == qbinom(n + m, k)


def freshman_congruence(m: int, truncation: int | None = None) -> bool:
    """Check (x+y)^m = x^m + y^m modulo Phi_m(q): the boundary coefficients
    of the expansion equal 1 and every interior one is divisible by Phi_m."""
    if m < 2:
        raise ValueError(f"freshman congruence requires m >= 2, got {m}")
    window = max(m + 1, truncation or 0)
    s = power_xy(m, Direction.FROM_ZERO, window)
    mod = cyclotomic(m)
    if s.coefficient(0) != ONE or s.coefficient(m) != ONE:
        return False
    return all(congruent_mod(s.coefficient(k), ZERO, mod) for k in range(1, m))
