"""Exact Laurent polynomials in q with arbitrary-precision integer coefficients.

This is the value type of every q-binomial coefficient in the package.  It
also houses cyclotomic polynomials and divisibility testing modulo them,
which is what "congruent mod Phi_m(q)" means for Laurent polynomials.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import accumulate, repeat

from . import _public

__all__ = _public(__name__)


class InvariantError(ArithmeticError):
    """An exact computation broke an identity that the mathematics guarantees,
    such as a division that must leave no remainder.  It signals a bug, never
    bad input, and unlike ``assert`` it is not removed under ``python -O``."""


class LaurentPoly:
    """A Laurent polynomial over the integers: a valuation plus a dense
    coefficient list, ``coeffs[i]`` holding the coefficient of ``q**(val+i)``.

    Instances are canonical: a nonzero polynomial never starts or ends with a
    zero coefficient, and the zero polynomial is ``LaurentPoly(0, ())``.
    Values are immutable after construction and safe to share across threads.

    >>> LaurentPoly(0, (0, 1, 1, 0))
    LaurentPoly('q + q^2')
    >>> LaurentPoly(-7, (1, 1, 2, 1, 1))
    LaurentPoly('q^-7 + q^-6 + 2*q^-5 + q^-4 + q^-3')
    >>> LaurentPoly(3, ()) == LaurentPoly(0, (0,))
    True
    """

    __slots__ = ("val", "coeffs", "__weakref__")
    val: int
    coeffs: tuple[int, ...]

    def __init__(self, val: int, coeffs: Sequence[int]):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            val += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.val = 0
            self.coeffs = ()
        else:
            self.val = val
            self.coeffs = tuple(coeffs if hi - lo == len(coeffs) else coeffs[lo:hi])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.val == other.val and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.val, self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> LaurentPoly:
        """The monomial ``coeff * q**e``."""
        return cls(e, (coeff,))

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> LaurentPoly:
        """Build from an {exponent: coefficient} mapping."""
        nonzero = {e: c for e, c in terms.items() if c != 0}
        if not nonzero:
            return ZERO
        lo, hi = min(nonzero), max(nonzero)
        coeffs = [0] * (hi - lo + 1)
        for e, c in nonzero.items():
            coeffs[e - lo] = c
        return cls(lo, coeffs)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (0 for the zero poly)."""
        return self.val

    def degree(self) -> int:
        """Highest exponent with a nonzero coefficient (-1 for the zero poly)."""
        return self.val + len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        i = e - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.val + i, c

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_self_reciprocal(self) -> bool:
        """True if the coefficient sequence reads the same in both directions."""
        return self.coeffs == self.coeffs[::-1]

    # -- arithmetic --------------------------------------------------------

    def _merge(self, other: int | LaurentPoly, op: Callable[[int, int], int]) -> LaurentPoly:
        """self op other, for op ``operator.add`` or ``operator.sub``: self is
        copied over the joint span, then op applies other over its own span."""
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if op is operator.add else -other
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        coeffs = [0] * (hi - lo)
        start = self.val - lo
        coeffs[start : start + len(self.coeffs)] = self.coeffs
        start = other.val - lo
        end = start + len(other.coeffs)
        coeffs[start:end] = map(op, coeffs[start:end], other.coeffs)
        return LaurentPoly(lo, coeffs)

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self._merge(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.val, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self._merge(other, operator.sub)

    def __rsub__(self, other: int) -> LaurentPoly:
        if not isinstance(other, int):
            return NotImplemented
        return LaurentPoly(0, (other,)) - self

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            if other == 1:
                return self
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # a monomial factor scales and shifts the other one
            c = b[0]
            if c == 1:
                out = a
            elif a == a[::-1]:
                # scale the half of a palindrome and mirror it, so that the
                # product, like a classical Gaussian polynomial, holds each
                # mirror pair of coefficients as one int object; a sign flip
                # by -1, as on the negative regions, negates
                half = a[: (len(a) + 1) // 2]
                if c == -1:
                    out = list(map(operator.neg, half))
                else:
                    out = list(map(operator.mul, half, repeat(c)))
                out += reversed(out[: len(a) // 2])
            else:
                out = tuple(map(operator.mul, a, repeat(c)))
        else:
            out = _kronecker_mul(a, b)
        return LaurentPoly(self.val + other.val, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, e: int) -> LaurentPoly:
        """Multiply by ``q**e``: every exponent translated by ``e``.

        >>> LaurentPoly(0, (1, 1)).shift(-1)
        LaurentPoly('q^-1 + 1')
        """
        if not self.coeffs:
            return self
        return LaurentPoly(self.val + e, self.coeffs)

    def substitute_qinv(self) -> LaurentPoly:
        """The image under q -> 1/q: exponent e becomes -e.

        >>> LaurentPoly(-5, (2, 0, 1)).substitute_qinv()
        LaurentPoly('q^3 + 2*q^5')
        """
        return LaurentPoly(-self.degree(), self.coeffs[::-1])

    def inflate(self, t: int) -> LaurentPoly:
        """The image under q -> q**t for a nonzero integer t."""
        if t == 0:
            raise ValueError("inflation exponent must be nonzero")
        return LaurentPoly.from_terms({e * t: c for e, c in self.terms()})

    def eval_at_one(self) -> int:
        """The integer value at q = 1, i.e. the sum of all coefficients."""
        return sum(self.coeffs)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """Render in the documented text format.

        Terms ascend by exponent; coefficient 1 is omitted; exponent 0 is a
        bare coefficient and exponent 1 is written "q"; negative coefficients
        join with " - " followed by the magnitude.

        >>> print(LaurentPoly(0, (-2, -2)))
        -2 - 2*q
        >>> print(LaurentPoly(0, ()))
        0
        """
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def to_json_dict(self) -> dict:
        """JSON form: valuation plus coefficient decimal strings, ascending."""
        return {
            "valuation": self.val,
            "coefficients": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> LaurentPoly:
        return cls(int(data["valuation"]), [int(c) for c in data["coefficients"]])


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))

# The `array` typecodes of signed machine words of 1, 2, 4 and 8 bytes.
_WORD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _schoolbook_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The convolution of two coefficient lists, term by term.  No product
    runs it: it is the reference the tests hold `_kronecker_mul` to."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _slot_width(bound: int) -> int:
    """The bytes per slot that `_pack` uses for integers of absolute value
    at most ``bound``: the fewest whose two's complement holds them,
    8 * width > bound.bit_length(), rounded up to a machine word of 1, 2,
    4 or 8 bytes, which `array` writes and reads in C, if that is at most
    8; a wider slot as it is."""
    width = bound.bit_length() // 8 + 1
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _halves(width: int, slots: int) -> int:
    """2**(8*width - 1) in each of ``slots`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value at q = 2**(8*width) of the polynomial with ascending
    coefficients ``coeffs``, each of absolute value below 2**(8*width - 1),
    at a slot width of 1, 2, 4 or 8 bytes or wider, as `_slot_width` gives.

    Each coefficient is written into a two's-complement slot of ``width``
    bytes, and the slots are read as one integer.  XOR with
    2**(8*width - 1) in every slot turns them into nonnegative slots biased
    by that much, so subtracting the biases gives the value.  A slot of at
    most 8 bytes is a machine word, which `array` writes in C; a wider slot
    goes through int.to_bytes, one coefficient at a time.

    >>> _pack([1, -1], 1) == 1 - 2**8
    True
    """
    if len(coeffs) < 2:  # a constant, or nothing, is its own value
        return sum(coeffs)
    if width <= 8:
        words = array(_WORD_CODES[width], coeffs)
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    bias = _halves(width, len(coeffs))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The convolution of two coefficient lists, each with a nonzero entry,
    by Kronecker substitution: each list is packed by `_pack` into one
    integer, a polynomial evaluated at q = 2**w, and the integers are
    multiplied by CPython's bigint arithmetic (Karatsuba for long operands).

    Every coefficient of the product is bounded in absolute value by
    max|a| * max|b| * min(len a, len b) < 2**(w-1), so each w-bit slot of
    the product holds one coefficient.  Adding 2**(w-1) to every slot of the
    product keeps each slot nonnegative, so no slot borrows from its
    neighbour, and XOR with the same biases gives back the slots in two's
    complement.

    A slot of at most 8 bytes is widened to 1, 2, 4 or 8, a machine word,
    which `array` writes and reads in C; a wider slot goes through
    int.to_bytes and int.from_bytes.
    """
    width = _slot_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    size = len(a) + len(b) - 1
    slots = _halves(width, size)
    raw = ((_pack(a, width) * _pack(b, width) + slots) ^ slots).to_bytes(width * size, "little")
    if width <= 8:
        out = array(_WORD_CODES[width], raw)
        if sys.byteorder == "big":
            out.byteswap()
        return out.tolist()
    return [
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(0, width * size, width)
    ]


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Long division of ascending coefficient lists by a monic divisor.

    Monic divisors keep every intermediate coefficient an integer, so the
    result is exact over the integers whenever the remainder comes out zero.
    """
    dd = len(den) - 1
    rem = list(num)
    quot = [0] * (len(rem) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return quot, rem[:dd]


def divides(d: LaurentPoly, a: LaurentPoly) -> bool:
    """True if ``a`` is a multiple of ``d`` in the Laurent polynomial ring.

    ``d`` must be monic with valuation 0.  A unit power of q never affects
    divisibility by such a ``d`` (its constant term is nonzero), so ``a`` is
    first shifted to valuation 0 and then divided exactly over the integers.
    """
    if d.is_zero() or d.val != 0 or not d.is_monic():
        raise ValueError("divisor must be monic with valuation 0")
    _, rem = _divmod_monic(a.coeffs, d.coeffs)
    return not any(rem)


class CyclotomicModulus(namedtuple("CyclotomicModulus", ["m"])):
    """The congruence context for q-Lucas: an integer m >= 2.  Its m-th
    cyclotomic polynomial Phi_m(q), `phi`, is built anew on each read."""

    __slots__ = ()

    @property
    def phi(self) -> LaurentPoly:
        return cyclotomic_poly(self.m)


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    primes = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    return primes


def _rotation(m: int, w: int) -> Callable[[int, int], int]:
    """Multiplication by q^e on residues modulo q^m - 1 packed at q = 2**w.

    Evaluating at q = 2**w maps Z[q]/(q^m - 1) onto Z/(2**(w*m) - 1): a
    residue with slots r_0, .., r_(m-1) becomes the integer sum of
    r_i * 2**(w*i), taken modulo N = 2**(w*m) - 1.  Sums and differences are
    those of the integers, and q^e, a power of 2 modulo N, is a rotation of
    w*m bits by w*(e mod m).  A residue is any integer congruent to its
    value modulo N, so it may be negative or past N; the rotation keeps the
    low w*m bits of the shifted integer and adds back what passed them,
    which reduces it.  Two residues whose slot differences stay below
    2**(w-1) in absolute value are equal exactly when they agree modulo N.
    """
    size = m * w
    mask = (1 << size) - 1

    def shift(r: int, e: int) -> int:
        s = e % m * w
        return ((r << s) & mask) + (r >> (size - s))

    return shift


def _residue_slots(r: int, m: int, w: int) -> list[int]:
    """The m slots of a residue modulo q^m - 1 packed at q = 2**w, as
    `_rotation` packs it, provided each slot is below 2**(w-1) in absolute
    value: the integer reduced into (-N/2, N/2], N = 2**(w*m) - 1, read
    as balanced digits in base 2**w."""
    mask = (1 << m * w) - 1
    r %= mask
    if r > mask >> 1:
        r -= mask
    half, low = 1 << (w - 1), (1 << w) - 1
    slots = []
    for _ in range(m):
        slots.append(((r + half) & low) - half)
        r = (r - slots[-1]) >> w
    return slots


def _annihilates(r: int, m: int, w: int, primes: Sequence[int]) -> bool:
    """True if the residue r modulo q^m - 1, packed at q = 2**w, times
    E = prod over the primes p | m of (1 - q^(m/p)) is zero; this is exact
    when 2**omega(m) times r's largest slot, omega(m) = len(primes), stays below
    2**(w-1), since no slot of E r can be larger.  Each prime takes one
    rotation and one subtraction, r - q^(m/p) r."""
    rotate = _rotation(m, w)
    for p in primes:
        r -= rotate(r, m // p)
    return r % ((1 << m * w) - 1) == 0


def _phi_divides_residue(r: Sequence[int], m: int) -> bool:
    """True if Phi_m divides the polynomial whose ascending coefficients are
    r, a list with len(r) <= m; no division is done.

    Phi_m is monic, so dividing by it over Z and over Q agree, and Phi_m
    divides an r of degree below m exactly when r(zeta_m) = 0.  If r is
    shorter than phi(m) + 1, that means r = 0.  Otherwise r, padded to m
    slots, is a residue modulo q^m - 1, and it is multiplied there by
    E = prod over primes p | m of (1 - q^(m/p)) on exact ints, with no
    packing: r - q^s r, s = m/p, is one list rotation and one slot-by-slot
    subtraction, and the last prime's factor is zero exactly when r equals
    its rotation, one list comparison.  E vanishes at zeta_d for every
    proper divisor d of m, since some p has d | m/p, and not at zeta_m;
    q^m - 1 is squarefree, so E r = 0 there exactly when r(zeta_m) = 0.
    """
    primes = _prime_factors(m)
    phi = m
    for p in primes:
        phi -= phi // p
    if len(r) <= phi:
        return not any(r)
    r = [*r, *repeat(0, m - len(r))]
    *firsts, last = primes
    for p in firsts:
        s = m // p
        r = list(map(operator.sub, r, r[-s:] + r[:-s]))
    s = m // last
    return r == r[-s:] + r[:-s]


def _confirm_rejection(r: Sequence[int], m: int) -> bool:
    """False, after ``divides``, the reference, has confirmed that Phi_m
    does not divide the polynomial with ascending coefficients r; a
    disagreement raises InvariantError.  Phi_m is built only here."""
    if divides(cyclotomic_poly(m), LaurentPoly(0, r)):
        raise InvariantError(f"annihilator and long division disagree modulo Phi_{m}")
    return False


def _divide_by_one_minus_q_power(prod: list[int], i: int) -> None:
    """Divide by (1 - q^i) in place, modulo q^len(prod): the ascending
    recurrence g[j] = f[j] + g[j-i] is a running sum along each residue
    class of j mod i."""
    for r in range(i):
        prod[r::i] = accumulate(prod[r::i])


def cyclotomic_poly(m: int) -> LaurentPoly:
    """The m-th cyclotomic polynomial for m >= 1, built anew on each call.

    For m > 1 it is the Moebius product Phi_m = prod over d | m of
    (1 - q^d)^mu(m/d).  Every factor with exponent +1 is multiplied in
    first, as one slice subtraction each; each factor with exponent -1 is
    then divided out exactly, as d stride-d prefix sums (checked).

    >>> cyclotomic_poly(6)
    LaurentPoly('1 - q + q^2')
    """
    if m < 1:
        raise ValueError(f"cyclotomic index must be positive, got {m}")
    if m == 1:
        return LaurentPoly(0, (-1, 1))
    # (d, mu(m/d)) for every divisor d of m with mu(m/d) != 0
    factors = [(m, 1)]
    for p in _prime_factors(m):
        factors += [(d // p, -mu) for d, mu in factors]
    coeffs = [1]
    for d, mu in factors:
        if mu == 1:  # multiply by (1 - q^d)
            prod = coeffs + [0] * d
            prod[d:] = map(operator.sub, prod[d:], coeffs)
            coeffs = prod
    for d, mu in factors:
        if mu == -1:
            _divide_by_one_minus_q_power(coeffs, d)
            width = len(coeffs) - d
            if any(coeffs[width:]):
                raise InvariantError(f"cyclotomic division left a remainder at m={m}")
            del coeffs[width:]
    return LaurentPoly(0, coeffs)


def cyclotomic(m: int) -> CyclotomicModulus:
    """The modulus object for Phi_m; only m >= 2 is a valid modulus."""
    if m < 2:
        raise ValueError(f"cyclotomic modulus requires m >= 2, got {m}")
    return CyclotomicModulus(m)


def _fold(a: LaurentPoly, m: int, shift: int, size: int) -> list[int]:
    """The residue of q^-shift * a modulo q^m - 1 as a list of ``size`` <= m
    slots, which must reach its last nonzero slot: the coefficients of
    ``a`` are summed over each class of exponents mod m, one slice sum per
    class, one pass per coefficient for a short side."""
    folded = [0] * size
    start = a.val - shift
    for r in range(min(m, len(a.coeffs))):
        folded[(start + r) % m] = sum(a.coeffs[r::m])
    return folded


def congruent_mod(a: LaurentPoly, b: LaurentPoly, mod: CyclotomicModulus) -> bool:
    """True if a - b is divisible by Phi_m(q).

    Phi_m divides q^m - 1, and q^-v is a unit, so a and b may each be
    multiplied by q^-v and reduced modulo q^m - 1 first.  With v the lower
    valuation of the two, read with the span from the sides themselves,
    that leaves a folded difference no longer than m or than a - b, which
    ``_phi_divides_residue`` tests exactly on its list of slots, with no
    division and no packing; a - b itself is never formed.  Both sides go
    through the one fold, whatever their span.  A rejection, which would
    report a counterexample, is confirmed by ``divides``, the reference:
    only then is Phi_m built and divided into the folded difference, and a
    disagreement raises InvariantError.

    >>> congruent_mod(LaurentPoly(-1, (1,)), LaurentPoly(2, (1,)), cyclotomic(3))
    True
    """
    m = mod.m
    if not b.coeffs:
        shift, end = a.val, a.val + len(a.coeffs)
    elif not a.coeffs:
        shift, end = b.val, b.val + len(b.coeffs)
    else:
        shift = min(a.val, b.val)
        end = max(a.val + len(a.coeffs), b.val + len(b.coeffs))
    size = min(m, end - shift)
    diff = list(map(operator.sub, _fold(a, m, shift, size), _fold(b, m, shift, size)))
    return _phi_divides_residue(diff, m) or _confirm_rejection(diff, m)


def _products_sum(terms: Sequence[tuple[LaurentPoly, LaurentPoly, int]]) -> LaurentPoly:
    """The sum of q^e * a * b over the triples (a, b, e), as a `LaurentPoly`:
    the reference that confirms each rejection of `_products_sum_equals`."""
    total = ZERO
    for a, b, e in terms:
        total = total + (a * b).shift(e)
    return total


def _products_sum_equals(terms: Sequence[tuple[LaurentPoly, LaurentPoly, int]], c: LaurentPoly) -> bool:
    """True if c equals the sum of q^e * a * b over the triples (a, b, e),
    decided by one comparison of integers, the two sides evaluated at
    q = 2**w by `_pack`.  Their difference has no coefficient larger than
    the sum of max|a| * max|b| * min(len a, len b) over the terms plus
    max|c|, which w-bit two's-complement slots hold, so it evaluates to
    zero only if it is zero.  No product or sum of polynomials is formed."""
    terms = [(a.coeffs, b.coeffs, a.val + b.val + e) for a, b, e in terms if a.coeffs and b.coeffs]
    bound = max(map(abs, c.coeffs), default=0)
    for a, b, _ in terms:
        bound += max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = _slot_width(bound)
    bits = 8 * width
    base = min([c.val, *(e for _, _, e in terms)])
    lhs = sum(_pack(a, width) * _pack(b, width) << bits * (e - base) for a, b, e in terms)
    return lhs == _pack(c.coeffs, width) << bits * (c.val - base)
