"""Apery numbers for every integer index, via binomials with negative entries.

Allowing negative entries turns the classical sum over k = 0..n into a sum
over all integers whose support stays finite, extends A to negative indices
with the symmetry A(-n) = A(n-1), and makes the Beukers and Coster
supercongruences two faces of one statement.  Values come from Apery's
three-term recurrence; the sum is kept as an independent oracle.
"""

from __future__ import annotations

import bisect
import threading

from . import _public
from .congruence import is_prime
from .laurent import InvariantError
from .qbinom import binom

__all__ = _public(__name__)

APERY_VARIANTS = ("beukers", "coster")


def _term(n: int, k: int) -> int:
    return binom(n, k) ** 2 * binom(n + k, k) ** 2


# The pairs (A(m-1), A(m)) that apery holds, and their m in ascending order;
# the lock keeps the two in step across threads.  The seed m = 0 holds
# A(-1) = A(0) = 1, and A(-1) gets weight 0 at m = 1.
_PAIRS: dict[int, tuple[int, int]] = {0: (1, 1)}
_HELD: list[int] = [0]
_LOCK = threading.Lock()


def apery(n: int) -> int:
    """A(n) = sum over all integers k of binom(n,k)^2 * binom(n+k,k)^2.

    Computed by Apery's three-term recurrence

        m^3 A(m) = (34m^3 - 51m^2 + 27m - 5) A(m-1) - (m-1)^3 A(m-2),

    with every division by m^3 checked to be exact.  A negative index goes
    through the symmetry A(-n) = A(n-1).  The defining sum is kept as
    `_apery_sum`, the oracle that `verify_apery_symmetry` checks against.

    The pair (A(m-1), A(m)) is held for every m computed so far, and the
    walk goes up to n from the largest held m <= n, so a process that asks
    for indices in ascending order takes each step once.  The held pairs
    are never dropped: the one for n takes about 1.3 n bytes, the same
    unbounded policy as the cache of `qbinom`.

    >>> [apery(n) for n in (0, 1, 2, 3)]
    [1, 5, 73, 1445]
    """
    if n < 0:
        n = -n - 1
    with _LOCK:
        start = _HELD[bisect.bisect_right(_HELD, n) - 1]
        prev, cur = _PAIRS[start]
    for m in range(start + 1, n + 1):
        numer = (((34 * m - 51) * m + 27) * m - 5) * cur - (m - 1) ** 3 * prev
        nxt, rem = divmod(numer, m**3)
        if rem:
            raise InvariantError(f"Apery recurrence left a remainder at m={m}")
        prev, cur = cur, nxt
    with _LOCK:
        if n not in _PAIRS:
            _PAIRS[n] = prev, cur
            bisect.insort(_HELD, n)
    return cur


def _apery_sum(n: int) -> int:
    """A(n) by its definition, the sum of binomials with negative entries.

    The support is k in [0, n] for n >= 0 and k in [0, -n-1] for n < 0;
    two extra terms beyond each end are checked to vanish before trusting
    the window.
    """
    hi = n if n >= 0 else -n - 1
    for k in (-2, -1, hi + 1, hi + 2):
        if _term(n, k):
            raise InvariantError(f"nonzero Apery term outside window at k={k}")
    return sum(_term(n, k) for k in range(hi + 1))


def verify_apery_symmetry(n: int) -> bool:
    """Check the reflection symmetry A(-n) = A(n-1): the defining sum at -n
    against the recurrence at n-1, two independent computations."""
    return _apery_sum(-n) == apery(n - 1)


def verify_apery_congruence(p: int, r: int, m: int, variant: str) -> bool:
    """Check a supercongruence modulo p^(3r) for a prime p >= 5 and positive
    integers r, m:

        beukers:  A(p^r m - 1) = A(p^(r-1) m - 1)
        coster:   A(p^r m)     = A(p^(r-1) m)

    Exact integer arithmetic throughout; no modular shortcuts.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"supercongruences require a prime p >= 5, got {p}")
    if r < 1 or m < 1:
        raise ValueError("r and m must be positive")
    if variant not in APERY_VARIANTS:
        raise ValueError(f"variant must be one of {APERY_VARIANTS}, got {variant!r}")
    offset = -1 if variant == "beukers" else 0
    lhs = apery(p**r * m + offset)
    rhs = apery(p ** (r - 1) * m + offset)
    return (lhs - rhs) % p ** (3 * r) == 0
