"""Gaussian binomial coefficients for arbitrary integer arguments.

The coefficient is nonzero precisely on three regions of the (n, k) plane:
the classical triangle 0 <= k <= n, the half-plane n < 0 <= k, and the wedge
k <= n < 0.  On the classical region it is the familiar Gaussian polynomial;
on the other two it is a reflected copy times a sign and a power of q, which
makes it a genuine Laurent polynomial.

Two independent evaluation strategies are provided: region-wise closed forms
(`qbinom`) and a dynamic program on the q-Pascal recursion (`qbinom_pascal`).
They must agree everywhere, and the test suite holds them to that.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import operator
import threading
import weakref

from . import _public
from .laurent import ONE, ZERO, InvariantError, LaurentPoly, _divide_by_one_minus_q_power

__all__ = _public(__name__)


class Region(enum.Enum):
    """The four-way partition of integer pairs (n, k)."""

    CLASSICAL = "classical"              # 0 <= k <= n
    NEGATIVE_N = "negative-n"            # n < 0 <= k
    DOUBLE_NEGATIVE = "double-negative"  # k <= n < 0
    VANISHING = "vanishing"              # k > n >= 0, n >= 0 > k, or 0 > k > n


def sgn(k: int) -> int:
    """1 if k >= 0, -1 if k < 0."""
    return 1 if k >= 0 else -1


def region(n: int, k: int) -> Region:
    if n >= 0:
        return Region.CLASSICAL if 0 <= k <= n else Region.VANISHING
    if k >= 0:
        return Region.NEGATIVE_N
    return Region.DOUBLE_NEGATIVE if k <= n else Region.VANISHING


def _classical_coeffs(
    n: int, k: int, start: LaurentPoly | None = None, diagonal: int | None = None
) -> list[int]:
    """Ascending coefficients of the classical Gaussian polynomial, 0 <= k <= n.

    Built as the product over i = 1..k of (1 - q^(n-k+i)) / (1 - q^i) with the
    division performed incrementally: every partial quotient is itself a
    Gaussian polynomial [n-k+i, i] of degree d = i(n-k).  Both steps are
    whole-list operations that run in C, with no Python loop per coefficient.

    Every partial quotient is palindromic, [N, i](q) = q^d [N, i](1/q), so
    each step computes its quotient only up to the middle degree d // 2 and
    i coefficients more, one per residue class mod i; the coefficients past
    those that the next step reads are mirrored, which copies references and
    makes no new ints.  Multiplying by 1 - q^top and dividing by 1 - q^i (a
    running sum) read only lower coefficients, so a step cut short is exact
    as far as it goes.  The running sums then add about k^2 (n-k) / 4
    coefficients in all, against k^2 (n-k) / 2 at whole length and
    3 k^2 (n-k) / 8 when only the final result is halved.

    No step reaches past its quotient's degree, so no step has a remainder
    to check.  Instead the i coefficients past the middle must equal their
    mirror partners d - j, or InvariantError is raised; when d // 2 + i
    reaches d the whole quotient is built and the check covers all of it.
    The result is checked against its closed-form values at q = 1 and
    q = -1 as well.

    The partial quotients [m+1, 1], [m+2, 2], ... lie on one diagonal
    m = n - k (k <= n - k), so a known [a+j, j] with 1 <= a <= m and
    j <= min(k, n - k) may be passed as start, and a as diagonal (m by
    default).  Its leading a*j // 2 + 1 coefficients seed the window.  Since
    [a+j, j] = [j+a, a] lies on the diagonal j, the walk first takes the
    steps of that diagonal from depth a + 1 to m, multiplying by
    (1 - q^(j+t)) and dividing by (1 - q^t), which end at [m+j, j]; then the
    steps j + 1..k of the diagonal m.  Each step keeps its palindrome check.
    A start that is not a palindrome of degree a*j raises InvariantError.
    """
    k = min(k, n - k)
    m = n - k
    coeffs, prev, j, a = [1], 0, 0, m  # [m, 0] = 1, its degree, depth and diagonal
    if start is not None and k:
        a = m if diagonal is None else diagonal
        seed = start.coeffs
        j = (len(seed) - 1) // a if 0 < a <= m else -1
        if start.val or not 0 <= j <= k or j * a != len(seed) - 1 or seed != seed[::-1]:
            raise InvariantError(
                f"start is not a palindrome [{a} + j, j] with j <= {k} on a diagonal 1..{m}"
            )
        coeffs, prev = list(seed[: j * a // 2 + 1]), j * a
    # the diagonal j from depth a to m, then the diagonal m from j to k
    for d, lo, hi in ((j, a, m), (m, j, k)) if a < m else ((m, j, k),):
        # the window of [m+j, j] can be wider than that of the next step:
        # cut it to the half that every window covers
        del coeffs[prev // 2 + 1 :]
        for i in range(lo + 1, hi + 1):
            top, deg = d + i, i * d
            mid = deg // 2
            width = min(mid + 1 + i, deg + 1)
            # extend the window of [top - 1, i - 1], a palindrome of degree
            # prev, by mirror to width coefficients, or to all prev + 1
            coeffs += reversed(coeffs[prev + 1 - min(width, prev + 1) : prev + 1 - len(coeffs)])
            # multiply by (1 - q^top), modulo q^width
            prod = coeffs + [0] * (width - len(coeffs))
            prod[top:] = map(operator.sub, prod[top:], coeffs)
            _divide_by_one_minus_q_power(prod, i)
            if prod[mid + 1 :] != prod[deg + 1 - width : deg - mid][::-1]:
                raise InvariantError(f"partial quotient [{top}, {i}] is not palindromic")
            coeffs, prev = prod, deg
    coeffs += reversed(coeffs[: prev + 1 - len(coeffs)])  # all of [m+k, k]
    _check_at_plus_minus_one(n, k, coeffs)
    return coeffs


def _check_at_plus_minus_one(n: int, k: int, coeffs: list[int]) -> None:
    """Raise InvariantError unless the coefficients of [n, k] sum to C(n, k)
    at q = 1 and to the known value of [n, k] at q = -1: 0 when n is even and
    k is odd, C(n // 2, k // 2) otherwise."""
    if sum(coeffs) != math.comb(n, k):
        raise InvariantError(f"Gaussian binomial [{n}, {k}] is wrong at q = 1")
    at_minus_one = 0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)
    if sum(coeffs[::2]) - sum(coeffs[1::2]) != at_minus_one:
        raise InvariantError(f"Gaussian binomial [{n}, {k}] is wrong at q = -1")


# The classical values computed so far: [a+j, j] with 1 <= j <= a as a weak
# reference under (a, j), and the depths j held on each diagonal a, in
# ascending order.  A value's death removes both, so the index holds nothing
# that the cache of qbinom has dropped, and qbinom.cache_clear() empties it.
# The lock keeps the two in step across threads; it is reentrant because a
# garbage collection inside a locked section can run a callback.
_DIAGONALS: dict[tuple[int, int], weakref.ref] = {}
_DEPTHS: dict[int, list[int]] = {}
_INDEX_LOCK = threading.RLock()


def _remember(a: int, j: int, value: LaurentPoly) -> None:
    def forget(ref: weakref.ref) -> None:
        with _INDEX_LOCK:
            if _DIAGONALS.get((a, j)) is ref:
                del _DIAGONALS[a, j]
                depths = _DEPTHS[a]
                depths.remove(j)
                if not depths:
                    del _DEPTHS[a]

    ref = weakref.ref(value, forget)
    with _INDEX_LOCK:
        if _DIAGONALS.setdefault((a, j), ref) is ref:
            bisect.insort(_DEPTHS.setdefault(a, []), j)


def _nearest_start(m: int, k: int) -> tuple[LaurentPoly | None, int]:
    """The held [a+j, j] with a <= m and j <= k from which the walk to
    [m+k, k] costs least, and its diagonal a; (None, m) for the walk from
    [m, 0].  A walk from [a+j, j] adds about j (m^2 - a^2) + m (k^2 - j^2)
    coefficients, which on each diagonal is least at its deepest j <= k or
    at j = 0, and is at least min(m k^2, k (m^2 - a^2)); so the scan down
    the diagonals stops once k (m^2 - a^2) reaches the least cost found."""
    best, start, diagonal = m * k * k, None, m
    with _INDEX_LOCK:
        a = m
        while a and k * (m * m - a * a) < best:
            depths = _DEPTHS.get(a)
            if depths and (i := bisect.bisect_right(depths, k)):
                j = depths[i - 1]
                cost = j * (m * m - a * a) + m * (k * k - j * j)
                # a collection may have cleared the reference and not yet
                # run its callback, or run it in this thread meanwhile
                ref = _DIAGONALS.get((a, j))
                if cost < best and ref is not None and (value := ref()) is not None:
                    best, start, diagonal = cost, value, a
            a -= 1
    return start, diagonal


@functools.lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> LaurentPoly:
    """The q-binomial coefficient of (n, k) as a canonical Laurent polynomial.

    Zero on the vanishing region; the classical product on 0 <= k <= n; and a
    sign times a q-power times a classical coefficient on the two negative
    regions, via the reflection rules:

        n < 0 <= k:   (-1)^k * q^(k(2n-k+1)/2) * qbinom(k-n-1, k)
        k <= n < 0:   (-1)^(n-k) * q^((n(n+1)-k(k+1))/2) * qbinom(-k-1, -n-1)

    The cache is process-wide and transparent: values are immutable and every
    strategy computes the identical canonical form.

    >>> qbinom(-3, -5)
    LaurentPoly('q^-7 + q^-6 + 2*q^-5 + q^-4 + q^-3')
    >>> qbinom(5, -2)
    LaurentPoly('0')
    """
    reg = region(n, k)
    if reg is Region.VANISHING:
        return ZERO
    if reg is Region.CLASSICAL:
        if k > n - k:  # [n, k] = [n, n - k], held once
            return qbinom(n, n - k)
        start, diagonal = _nearest_start(n - k, k)
        value = LaurentPoly(0, _classical_coeffs(n, k, start, diagonal))
        if k:
            _remember(n - k, k, value)
        return value
    if reg is Region.NEGATIVE_N:
        doubled, sign = k * (2 * n - k + 1), -1 if k % 2 else 1
        top, j = k - n - 1, k
    else:
        doubled, sign = n * (n + 1) - k * (k + 1), -1 if (n - k) % 2 else 1
        top, j = -k - 1, -n - 1
    if doubled % 2:
        raise InvariantError(f"odd q-shift exponent at ({n}, {k})")
    return (qbinom(top, min(j, top - j)) * sign).shift(doubled // 2)


def binom(n: int, k: int) -> int:
    """The integer binomial coefficient for all integer n, k: the value of
    qbinom(n, k) at q = 1.

    Computed through the same region reflections with an integer kernel; the
    test suite pins it to qbinom(n, k).eval_at_one().

    >>> binom(-11, -19)
    43758
    """
    # the regions of `region`, told apart by sign tests alone; math.comb(a, b)
    # is 0 for b > a >= 0, which covers the vanishing cases with k > n
    if n >= 0:
        return math.comb(n, k) if k >= 0 else 0
    if k >= 0:
        return (-1 if k % 2 else 1) * math.comb(k - n - 1, k)
    return (-1 if (n - k) % 2 else 1) * math.comb(-k - 1, -n - 1)


def _pascal_nonnegative(n: int, k: int) -> LaurentPoly:
    # Classical triangle, filled upward from row 0.
    if k < 0 or k > n:
        return ZERO
    row: list[LaurentPoly] = [ONE]
    for m in range(1, n + 1):
        new = [ONE]  # seed C(m, 0) = 1
        for j in range(1, m + 1):
            above = row[j] if j < m else ZERO
            new.append(row[j - 1] + above.shift(j))
        if new[m] != ONE:
            raise InvariantError("derived corner disagrees with the C(n,n)=1 seed")
        row = new
    return row[k]


def _pascal_negative(n: int, k: int) -> LaurentPoly:
    # Negative rows, filled downward from row 0 by the inverted recursion
    #   C(m, j) = q^-j * (C(m+1, j) - C(m, j-1))      marching j upward,
    #   C(m, j) = C(m+1, j+1) - q^(j+1) * C(m, j+1)   marching j downward,
    # anchored at the seed C(m, m) = 1 of each row.
    lo = min(n, k, -1) - 1
    hi = max(k, 0) + 1
    above = {j: (ONE if j == 0 else ZERO) for j in range(lo, hi + 1)}
    for m in range(-1, n - 1, -1):
        cur = {m: ONE}
        for j in range(m + 1, hi + 1):
            if m == -1 and j == 0:
                # the recursion instance (n, k) = (0, 0) is excluded; the
                # seed C(-1, 0) = 1 takes over here
                cur[0] = ONE
            else:
                cur[j] = (above[j] - cur[j - 1]).shift(-j)
        if m < -1 and cur[0] != ONE:
            # the C(n, 0) = 1 seed family is redundant but must stay consistent
            raise InvariantError("derived C(n,0) disagrees with the seed")
        for j in range(m - 1, lo - 1, -1):
            cur[j] = above[j + 1] - cur[j + 1].shift(j + 1)
        above = cur
    return above[k]


@functools.lru_cache(maxsize=None)
def qbinom_pascal(n: int, k: int) -> LaurentPoly:
    """Independent evaluation of qbinom(n, k) by dynamic programming on the
    q-Pascal recursion C(n,k) = C(n-1,k-1) + q^k C(n-1,k), seeded with
    C(n,0) = C(n,n) = 1.

    Nonnegative rows fill upward in n; negative rows fill downward using the
    recursion solved for the lower row, marching k outward from the anchors.

    >>> qbinom_pascal(4, 2)
    LaurentPoly('1 + q + 2*q^2 + q^3 + q^4')
    """
    if n >= 0:
        return _pascal_nonnegative(n, k)
    return _pascal_negative(n, k)


def six_forms(n: int, k: int) -> list[tuple[LaurentPoly, tuple[int, int]]]:
    """The six (prefactor, index) records whose evaluations all reproduce
    qbinom(n, k): the five transformed forms of the reflection/symmetry group
    in the order they arise, closed off by the identity as the sixth record.

    >>> six_forms(-3, 2)[4]
    (LaurentPoly('q^-7'), (4, 2))
    """
    half_nk = (n * (n + 1) - k * (k + 1)) // 2
    half_k = (k * (2 * n - k + 1)) // 2
    pre_nk = LaurentPoly.q_power(half_nk, (-1 if (n - k) % 2 else 1) * sgn(n - k))
    pre_k = LaurentPoly.q_power(half_k, (-1 if k % 2 else 1) * sgn(k))
    return [
        (ONE, (n, n - k)),
        (pre_nk, (-k - 1, n - k)),
        (pre_nk, (-k - 1, -n - 1)),
        (pre_k, (k - n - 1, -n - 1)),
        (pre_k, (k - n - 1, k)),
        (ONE, (n, k)),
    ]


def degree_profile(n: int, k: int) -> tuple[int, int] | None:
    """Predicted (valuation, degree) of qbinom(n, k), or None where it is zero.

    >>> degree_profile(-3, 2)
    (-7, -3)
    """
    reg = region(n, k)
    if reg is Region.VANISHING:
        return None
    if reg is Region.CLASSICAL:
        return 0, k * (n - k)
    if reg is Region.NEGATIVE_N:
        low = k * (2 * n - k + 1) // 2
        return low, low + k * (-n - 1)
    low = (n * (n + 1) - k * (k + 1)) // 2
    return low, low + (-n - 1) * (n - k)
