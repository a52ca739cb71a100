"""Hybrid sets with integer multiplicities and the subset-counting oracle.

A hybrid set assigns an integer multiplicity (possibly negative) to each
element.  Restricted to the standard new sets X_n, enumerating k-element
subsets yields a combinatorial interpretation of the q-binomial coefficient:
a signed, q-weighted sum over subsets reproduces qbinom(n, k) exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from . import _public
from .laurent import LaurentPoly

__all__ = _public(__name__)


class HybridSet:
    """A finite map from integer elements to nonzero integer multiplicities,
    built from a mapping whose zero entries are dropped.

    Rendered in the bar notation: positive-multiplicity elements (repeated
    per multiplicity) before the bar, negative after, sorted descending.

    >>> print(HybridSet({-1: 2}))
    {-1, -1 | }
    >>> print(HybridSet({-1: -2, -2: -1, -3: -1}))
    { | -1, -1, -2, -3}
    """

    __slots__ = ("multiplicities",)
    multiplicities: tuple[tuple[int, int], ...]

    def __init__(self, multiplicities: Mapping[int, int]):
        self.multiplicities = tuple(
            sorted(((e, m) for e, m in multiplicities.items() if m != 0), reverse=True)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash((self.multiplicities,))

    @classmethod
    def from_elements(cls, positives: Iterable[int] = (), negatives: Iterable[int] = ()) -> HybridSet:
        """Build from element listings, counting repeats as multiplicity."""
        counts: Counter[int] = Counter(positives)
        counts.subtract(Counter(negatives))
        return cls(counts)

    def multiplicity(self, e: int) -> int:
        for elem, m in self.multiplicities:
            if elem == e:
                return m
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.multiplicities)

    def element_count(self) -> int:
        """Sum of multiplicities; may be negative."""
        return sum(m for _, m in self.multiplicities)

    def sigma(self) -> int:
        """Multiplicity-weighted sum of elements."""
        return sum(m * e for e, m in self.multiplicities)

    def __str__(self) -> str:
        pos = [str(e) for e, m in self.multiplicities if m > 0 for _ in range(m)]
        neg = [str(e) for e, m in self.multiplicities if m < 0 for _ in range(-m)]
        return "{" + ", ".join(pos) + " | " + ", ".join(neg) + "}"

    def __repr__(self) -> str:
        return f"HybridSet('{self}')"


def standard_new_set(n: int) -> HybridSet:
    """X_n: the elements 0..n-1 with multiplicity +1 for n >= 0, or the
    elements -1..n with multiplicity -1 for n < 0."""
    if n >= 0:
        return HybridSet({e: 1 for e in range(n)})
    return HybridSet({e: -1 for e in range(-1, n - 1, -1)})


def k_subsets(n: int, k: int) -> Iterator[HybridSet]:
    """Stream the k-element subsets of X_n, region by region:

    * 0 <= k <= n: ordinary k-element subsets of {0..n-1};
    * n < 0 <= k: size-k multisets over the elements -1..n (chosen with
      replacement, all multiplicities positive);
    * k <= n < 0: hybrid sets containing X_n, every element of -1..n with
      multiplicity <= -1 and multiplicities summing to k;
    * otherwise nothing.

    Enumeration order is fixed (elements traversed -1, -2, ... on the
    negative regions) so golden tests are deterministic.
    """
    if 0 <= k <= n:
        for combo in itertools.combinations(range(n), k):
            yield HybridSet({e: 1 for e in combo})
    elif n < 0 <= k:
        elements = range(-1, n - 1, -1)
        for combo in itertools.combinations_with_replacement(elements, k):
            yield HybridSet(Counter(combo))
    elif k <= n < 0:
        elements = range(-1, n - 1, -1)
        extra = n - k  # stars to distribute on top of one mandatory copy each
        for combo in itertools.combinations_with_replacement(elements, extra):
            extras = Counter(combo)
            yield HybridSet({e: -1 - extras[e] for e in elements})


def _sigmas(n: int, k: int) -> Iterator[int]:
    """sigma(Y) for each Y of ``k_subsets(n, k)``, in the same order, read
    straight from the combination streams without building the hybrid sets.

    On k <= n < 0 the element e has multiplicity -1 - (copies of e among the
    extras), so sigma(Y) = -sum(X_n's elements) - sum(extras).
    """
    elements = range(-1, n - 1, -1)
    if 0 <= k <= n:
        return map(sum, itertools.combinations(range(n), k))
    if n < 0 <= k:
        return map(sum, itertools.combinations_with_replacement(elements, k))
    if k <= n < 0:
        extras = itertools.combinations_with_replacement(elements, n - k)
        return map((-sum(elements)).__sub__, map(sum, extras))
    return iter(())


def subset_count(n: int, k: int) -> int:
    """The number of k-element subsets of X_n, counted from the stream."""
    return sum(Counter(_sigmas(n, k)).values())


def qbinom_via_subsets(n: int, k: int) -> LaurentPoly:
    """The combinatorial evaluation of the q-binomial coefficient:

        eps * sum over k-subsets Y of X_n of q^(sigma(Y) - k(k-1)/2)

    with eps = 1 on the classical region, (-1)^k for n < 0 <= k, and
    (-1)^(n-k) for k <= n < 0.  Agrees with qbinom(n, k) everywhere.

    >>> qbinom_via_subsets(-3, -4)
    LaurentPoly('-q^-3 - q^-2 - q^-1')
    """
    # the regions told apart by sign tests alone, as in _sigmas; on the
    # vanishing region _sigmas yields nothing and the sum is zero
    eps = -1 if n < 0 and (k if k >= 0 else n - k) % 2 else 1
    offset = -(k * (k - 1) // 2)
    counts = Counter(_sigmas(n, k))
    return LaurentPoly.from_terms({s + offset: eps * c for s, c in counts.items()})
