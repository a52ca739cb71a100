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
from itertools import repeat

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

    With k <= n - k and m = n - k, [n, k] = [m+k, k] is walked to from a
    start, [m, 0] = 1 by default, one step at a time.  A step moves one
    coordinate of [x+y, y] by one, the other held, and multiplies by
    (1 - q^u) and divides by (1 - q^s):

        x or y up to c:        (u, s) = (x + y + 1, c)
        x or y down from c:    (u, s) = (c, x + y)

    Each quotient is a Gaussian polynomial again, of degree d = x*y.  Both
    operations are whole-list ones that run in C, with no Python loop per
    coefficient: the multiply is one slice subtraction, the division is s
    stride-s running sums.

    Every quotient is palindromic, [x+y, y](q) = q^d [x+y, y](1/q), so each
    step computes it only up to the middle degree d // 2 and s coefficients
    more, one per residue class mod s; the coefficients past those that the
    next step reads are mirrored, which copies references and makes no new
    ints.  Multiplying by 1 - q^u and dividing by 1 - q^s read only lower
    coefficients, so a step cut short is exact as far as it goes.  The cold
    walk, up the diagonal m from depth 0 to k, adds about k^2 (n-k) / 4
    coefficients in its running sums, against k^2 (n-k) / 2 at whole length.

    No step reaches past its quotient's degree, so no step has a remainder
    to check.  Instead the s coefficients past the middle must equal their
    mirror partners d - j, or InvariantError is raised; when d // 2 + s
    reaches d the whole quotient is built and the check covers all of it.
    The result is checked against its closed-form values at q = 1 and
    q = -1 as well, read from its half.

    A known [a+j, j], on the diagonal a at depth j, may be passed as start,
    and a as diagonal (m by default); the diagonal 0 admits only [0, 0] = 1.
    Its leading a*j // 2 + 1 coefficients seed the window.  The walk moves
    a to m at the held depth j, then j to k on the diagonal m; from [m, 0]
    the first leg is empty.  A start past the target is walked back.  Each
    step keeps its palindrome check.  A start that is not a palindrome of
    degree a*j, or one on a negative diagonal, raises InvariantError.
    """
    k = min(k, n - k)
    m = n - k
    start = ONE if start is None else start  # [a, 0] = 1
    a = m if diagonal is None else diagonal
    seed = start.coeffs
    # on the diagonal 0 only [0, 0] = 1, whose degree 0 fixes no depth
    j = (len(seed) - 1) // a if a else 0
    if a < 0 or start.val or j < 0 or j * a != len(seed) - 1 or seed != seed[::-1]:
        raise InvariantError(f"start is not a palindrome [{a} + j, j] on a diagonal a >= 0")
    coeffs, prev = list(seed[: j * a // 2 + 1]), j * a
    # (held coordinate, moving coordinate, its end) for each leg
    for other, c, end in ((j, a, m), (m, j, k)):
        up = end > c
        for c in range(c + 1, end + 1) if up else range(c - 1, end - 1, -1):
            u, s = (c + other, c) if up else (c + 1, c + 1 + other)
            deg = c * other
            mid = deg // 2
            width = min(mid + 1 + s, deg + 1)
            # the window of the last quotient, a palindrome of degree prev,
            # extended by mirror or cut to width coefficients, then by zeros
            if len(coeffs) < width:
                have = min(width, prev + 1)
                coeffs += reversed(coeffs[prev + 1 - have : prev + 1 - len(coeffs)])
                coeffs += repeat(0, width - len(coeffs))
            else:
                del coeffs[width:]
            # multiply by (1 - q^u), modulo q^width
            coeffs[u:] = map(operator.sub, coeffs[u:], coeffs)
            _divide_by_one_minus_q_power(coeffs, s)
            if coeffs[mid + 1 :] != coeffs[deg + 1 - width : deg - mid][::-1]:
                raise InvariantError(f"partial quotient [{c + other}, {c}] is not palindromic")
            prev = deg
    del coeffs[prev // 2 + 1 :]
    _check_at_plus_minus_one(n, k, coeffs)
    coeffs += reversed(coeffs[: prev + 1 - len(coeffs)])  # all of [m+k, k]
    return coeffs


def _walk_cost(m: int, k: int, a: int, j: int) -> int:
    """The coefficients that the walk from [a+j, j] to [m+k, k] adds, up to
    a common factor.  A step to [x+y, y] adds about x*y / 2 in its running
    sums: the leg from diagonal a to m at depth j about j |m^2 - a^2| / 4,
    and the leg from depth j to k on the diagonal m about m |k^2 - j^2| / 4."""
    return j * abs(m * m - a * a) + m * abs(k * k - j * j)


def _check_at_plus_minus_one(n: int, k: int, half: list[int]) -> None:
    """Raise InvariantError unless [n, k], the palindrome of degree
    d = k(n-k) whose coefficients up to d // 2 are half, sums to C(n, k) at
    q = 1 and to its known value at q = -1: 0 when n is even and k is odd,
    C(n // 2, k // 2) otherwise.  Each coefficient below the middle counts
    twice, once more for its mirror partner, and the middle one once.  For
    odd d, which is when n is even and k is odd, the partners cancel at
    q = -1, so any half gives 0 there."""
    deg = k * (n - k)
    middle = 0 if deg % 2 else half[-1]
    even, odd = sum(half[::2]), sum(half[1::2])
    if 2 * (even + odd) - middle != math.comb(n, k):
        raise InvariantError(f"Gaussian binomial [{n}, {k}] is wrong at q = 1")
    if deg % 2 == 0:
        at_minus_one = 2 * (even - odd) - (-middle if deg % 4 else middle)
        if at_minus_one != math.comb(n // 2, k // 2):
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
    """The held [a+j, j] from which the walk to [m+k, k] costs least, and
    its diagonal a; (None, m) for the walk from [m, 0].  A walk from
    [a+j, j] costs f(j) = `_walk_cost` = j |m^2 - a^2| + m |k^2 - j^2|.
    On one diagonal f is concave for j <= k, with f(0) = m k^2 and
    f(k) = k |m^2 - a^2|, and it increases with j for j >= k.  So f is
    least at the held depths next to k on either side or at j = 0, and it
    is at least min(m k^2, k |m^2 - a^2|).  The scan runs down the
    diagonals from m, then up from m + 1, and each side stops once
    k |m^2 - a^2| reaches the least cost found; with that cost at most
    m k^2, it looks at no more than k + 1 + ceil(k / 2) diagonals."""
    best, start, diagonal = m * k * k, None, m
    with _INDEX_LOCK:
        for a, step in ((m, -1), (m + 1, 1)):
            while a and k * abs(m * m - a * a) < best:
                depths = _DEPTHS.get(a)
                if depths:
                    i = bisect.bisect_right(depths, k)
                    for j in depths[i - 1 if i else 0 : i + 1]:
                        cost = _walk_cost(m, k, a, j)
                        if cost < best:
                            # a collection may have cleared the reference and
                            # not yet run its callback, or run it in this
                            # thread meanwhile
                            ref = _DIAGONALS.get((a, j))
                            if ref is not None and (value := ref()) is not None:
                                best, start, diagonal = cost, value, a
                a += step
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
    # the halved products are even: k and 2n - k + 1 differ in parity, and
    # n(n+1) and k(k+1) are each a product of two consecutive integers
    if reg is Region.NEGATIVE_N:
        shift, sign = k * (2 * n - k + 1) // 2, -1 if k % 2 else 1
        top, j = k - n - 1, k
    else:
        shift, sign = (n * (n + 1) - k * (k + 1)) // 2, -1 if (n - k) % 2 else 1
        top, j = -k - 1, -n - 1
    return (qbinom(top, min(j, top - j)) * sign).shift(shift)


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
    # Classical rows, filled upward from row 0.  Row m holds the seed, the
    # cells k - (n - m) <= j <= k that C(n, k) reads, and the checked corner.
    if k < 0 or k > n:
        return ZERO
    row = {0: ONE}
    for m in range(1, n + 1):
        new = {0: ONE}  # seed C(m, 0) = 1
        for j in {*range(max(k - n + m, 1), min(k, m) + 1), m}:
            above = row[j] if j < m else ZERO
            new[j] = row[j - 1] + above.shift(j)
        if new[m] != ONE:
            raise InvariantError("derived corner disagrees with the C(n,n)=1 seed")
        row = new
    return row[k]


def _pascal_negative(n: int, k: int) -> LaurentPoly:
    # Negative rows, filled downward from row 0 by the inverted recursion
    #   C(m, j) = q^-j * (C(m+1, j) - C(m, j-1))      marching j upward,
    #   C(m, j) = C(m+1, j+1) - q^(j+1) * C(m, j+1)   marching j downward,
    # from the seed C(m, m) = 1: up to max(k, 0), past the checked C(m, 0),
    # and down to k + m - n, below m only when k < n.  Row 0 holds the cells
    # that row -1 reads, so a read past them raises instead of reading zero.
    top = max(k, 0)
    above = {j: ONE if j == 0 else ZERO for j in range(min(k - n, 0), top + 1)}
    for m in range(-1, n - 1, -1):
        cur = {m: ONE}
        for j in range(m + 1, top + 1):
            # the recursion fails at (0, 0); the seed C(-1, 0) = 1 takes over
            cur[j] = ONE if (m, j) == (-1, 0) else (above[j] - cur[j - 1]).shift(-j)
        if m < -1 and cur[0] != ONE:
            # the C(n, 0) = 1 seed family is redundant but must stay consistent
            raise InvariantError("derived C(n,0) disagrees with the seed")
        for j in range(m - 1, k + m - n - 1, -1):
            cur[j] = above[j + 1] - cur[j + 1].shift(j + 1)
        above = cur
    return above[k]


@functools.lru_cache(maxsize=None)
def qbinom_pascal(n: int, k: int) -> LaurentPoly:
    """Independent evaluation of qbinom(n, k) by dynamic programming on the
    q-Pascal recursion C(n,k) = C(n-1,k-1) + q^k C(n-1,k), seeded with
    C(n,0) = C(n,n) = 1.

    Nonnegative rows fill upward in n, negative rows downward by the
    recursion solved for the lower row.  A row holds only the cells that
    C(n, k) reads, yet both seed checks cover every row: each classical row
    derives its corner C(m, m), each negative row marches up past C(m, 0).

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
