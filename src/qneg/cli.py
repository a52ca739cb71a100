"""Command-line front end: evaluation, tables, expansions, and verification
sweeps over every identity the library implements.

Every subcommand is a thin adapter over the library and one row of the
COMMANDS table, which drives its parser, its handler and its JSON body.
Output formats are documented and stable so they can serve as golden
fixtures.  Exit status is 0 on success or all-pass, 1 on verification
failure, 2 on usage errors.  A reader that closes stdout early (a broken
pipe) also gives 0, silently.

Each suite and handler imports the submodules it uses after its guards, so
a process loads only those, and a refused request none.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain, product

SCHEMA = "qneg/1"

EXPAND_MODES = (
    "noncommutative-from-zero",
    "noncommutative-from-infinity",
    "pochhammer",
)

# The work model: before any work, every command estimates from degrees and
# range ends the 64-bit words its arithmetic writes, in four kinds of term:
#   (a) a classical value [top, j], j <= top - j, walked cold: the running
#       sums of its j steps, about j^2 (top - j) / 4 coefficients, and its
#       j (top - j) + 1 coefficients, each of at most the words of C(top, j)
#       and OBJECT more for its int object and slot, held, as is each of the
#       joint span of a sum or difference of values;
#   (b) a chain: its passes times the words of its window;
#   (c) a big integer from math.comb or text: words squared; a product of
#       integers of x <= y words, which CPython multiplies by Karatsuba,
#       y * x^0.585;
#   (d) CASE for each case checked, term of a sum built or value printed,
#       and TEXT for each coefficient printed.
# Timed on a 2-core x86-64 machine, CPython 3.11.7, one process run each: a
# word of (a) to (c) took 5 to 15 ns, a case 3 to 30 us, a printed
# coefficient 0.6 to 0.9 us.  CASE and TEXT are assumed values inside those
# ranges, not fitted.  The limit admits README's 81 x 81 table (0.6 s) and
# `verify qlucas --m 2..130` (1.9 s); it refuses `eval --n 1000 --k 500`
# (5.4 s).
MAX_WORDS, CASE, TEXT, OBJECT = 300_000_000, 1_000, 64, 4
SIZE_NOTE = (
    "A request whose arithmetic, by an estimate made before any work, writes "
    f"more than {MAX_WORDS:,} 64-bit words is refused with exit status 2."
)

Outcome = bool | str  # True, False, or "skip"
Case = tuple[str, Outcome]


RANGE_FLAGS = ("--n", "--k", "--m", "--p")


def parse_range(text: str) -> tuple[int, int]:
    """Parse inclusive "lo..hi" (or a single integer) into (lo, hi)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}, expected lo..hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: lo must not exceed hi")
    return lo, hi


def __getattr__(name: str):
    # The library's public names, as `qneg.cli.qbinom` read when this module
    # imported them at its top: through the package, on every access.
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _span(rng: tuple[int, int] | None, lo: int, hi: int) -> range:
    lo, hi = rng or (lo, hi)
    return range(lo, hi + 1)


# -- the work model -----------------------------------------------------------


def _cells(*ranges: range) -> int:
    return math.prod(r.stop - r.start for r in ranges)  # len() overflows past sys.maxsize


def _words(bits: int) -> int:
    return bits // 64 + 1


def _apery_words(m: int) -> int:
    return _words(m * 5088 // 1000)  # A(m) <= P_m(3)^2 < 34^m, and log2(34) < 5.088


def _shape(n: int, k: int) -> tuple[int, int, int, int]:
    """(top, j, size, words): by the reflections, qbinom(n, k) is a sign times
    q^e [top, j], j <= top - j, of size = j(top - j) + 1 coefficients of at most
    the words of C(top, j) <= min(2**top, (e * top / j)**j); (0, 0, 0, 1) for 0."""
    top, j = (n, k) if n >= 0 else (k - n - 1, k) if k >= 0 else (-k - 1, -n - 1)
    if not 0 <= j <= top:
        return 0, 0, 0, 1
    j = min(j, top - j)
    return top, j, j * (top - j) + 1, _words(min(top, j * (top.bit_length() - j.bit_length() + 3)))


def _walk(n: int, k: int) -> int:
    """Term (a) for qbinom(n, k): step c = 1..j of the cold walk runs its sums
    over at most c (top - j) / 2 + c + 1 coefficients, then the value is held."""
    top, j, size, words = _shape(n, k)
    return (j * (j + 1) * (top - j + 2) // 4 + j + size) * words + OBJECT * size


def _packed(x: int, y: int, words: int) -> int:
    """Term (c) for the product of polynomials of x and y coefficients packed
    in slots of `words` words (a float power is taken of at most MAX_WORDS)."""
    x, y = x * words, y * words
    return max(x, y) * math.ceil(min(x, y, MAX_WORDS) ** 0.585)


def _check(work: Iterable[int], cases: int = 0) -> None:
    """Refuse, as a usage error, a request past MAX_WORDS: CASE words for each
    case, then the terms of work up to the first past the limit, if any."""
    total = next((t for t in accumulate(work, initial=cases * CASE) if t > MAX_WORDS), 0)
    if total:
        raise ValueError(
            f"the result is too large ({total:,} words by estimate; the limit is {MAX_WORDS:,})"
        )


def _check_text(bits: int, name: str) -> None:
    """Refuse an integer of at least 2**bits past the int-to-text limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and bits * 30102 // 100000 > limit:
        raise _too_long(name)


# -- verification suites ----------------------------------------------------
#
# Each suite streams (case id, outcome) in a fixed order; the aggregate
# report is therefore deterministic however the sweep is scheduled.


def _box(ns, half: int, cost: Callable[[int, int], int] = _walk) -> Iterator[tuple[int, int]]:
    """The (n, k) pairs of --n x --k, each -half..half by default, n-major,
    after the size guard on the cost of each, by default the walk to it."""
    n_values, k_values = _span(ns.n, -half, half), _span(ns.k, -half, half)
    _check((cost(n, k) for n in n_values for k in k_values), _cells(n_values, k_values))
    return ((n, k) for n in n_values for k in k_values)


def _pascal_cost(n: int, k: int) -> int:
    # the value and its neighbours x = [n - 1, k - 1] and y = [n - 1, k]
    # walked; the sums x + q^k y and q^(n - k) x + y, each over the largest
    # of the three spans, and the differences [n, k] - q^k [n, k] and x - q^n x
    (_, _, s, u), (_, _, a, v), (_, _, b, _) = _shape(n, k), _shape(n - 1, k - 1), _shape(n - 1, k)
    sums = 2 * max(s, a, b) if a and b else 0
    spans = (sums + (s and s + abs(k))) * (u + OBJECT) + (a and a + abs(n)) * (v + OBJECT)
    return _walk(n, k) + _walk(n - 1, k - 1) + _walk(n - 1, k) + spans


def _suite_pascal(ns) -> Iterator[Case]:
    # q-Pascal, its alternate form, and absorption, (1 - q^k)[n, k] =
    # (1 - q^n)[n - 1, k - 1], checked as differences of shifts
    box = _box(ns, 12, _pascal_cost)
    from .qbinom import qbinom

    for n, k in box:
        case = f"pascal n={n} k={k}"
        if (n, k) == (0, 0):
            yield case, "skip"
            continue
        lhs, x, y = qbinom(n, k), qbinom(n - 1, k - 1), qbinom(n - 1, k)
        ok = lhs == x + y.shift(k) and lhs == x.shift(n - k) + y
        yield case, ok and lhs - lhs.shift(k) == x - x.shift(n)


def _suite_symmetry(ns) -> Iterator[Case]:
    box = _box(ns, 12)
    from .qbinom import qbinom

    for n, k in box:
        yield f"symmetry n={n} k={k}", qbinom(n, k) == qbinom(n, n - k)


def _suite_reflection(ns) -> Iterator[Case]:
    # All six reflection/symmetry forms must reproduce the coefficient.
    box = _box(ns, 12)
    from .qbinom import qbinom, six_forms

    for n, k in box:
        lhs = qbinom(n, k)
        ok = all(pre * qbinom(n2, k2) == lhs for pre, (n2, k2) in six_forms(n, k))
        yield f"reflection n={n} k={k}", ok


def _suite_qinv(ns) -> Iterator[Case]:
    box = _box(ns, 12)
    from .qbinom import qbinom

    for n, k in box:
        v = qbinom(n, k)
        yield f"qinv n={n} k={k}", v == v.substitute_qinv().shift(k * (n - k))


def _suite_degrees(ns) -> Iterator[Case]:
    box = _box(ns, 12)
    from .qbinom import degree_profile, qbinom

    for n, k in box:
        v = qbinom(n, k)
        prof = degree_profile(n, k)
        if v.is_zero():
            ok = prof is None
        else:
            ok = prof == (v.valuation(), v.degree()) and v.is_self_reciprocal()
        yield f"degrees n={n} k={k}", ok


def _subsets_cost(n: int, k: int) -> int:
    # the value; the |n| + 1 rows of qbinom_pascal, of at most |n| + |k| + 2
    # cells no larger than it (none for n >= 0 off the classical region); the
    # C(top, j) subsets of top + 1 words twice, if the walk fits: C is fast
    top, j, size, words = _shape(n, k)
    walk = _walk(n, k)
    rows = abs(n) + 1 if n < 0 or size else 0
    subsets = math.comb(top, j) if size and walk <= MAX_WORDS else 0
    return walk + rows * (abs(n) + abs(k) + 2) * (size * words + 1) + 2 * subsets * (top + 1)


def _suite_subsets(ns) -> Iterator[Case]:
    box = _box(ns, 7, _subsets_cost)
    from .hybridset import qbinom_via_subsets, subset_count
    from .qbinom import binom, qbinom, qbinom_pascal

    for n, k in box:
        ok = qbinom_via_subsets(n, k) == qbinom(n, k)
        ok = ok and subset_count(n, k) == abs(binom(n, k))
        ok = ok and qbinom_pascal(n, k) == qbinom(n, k)
        yield f"subsets n={n} k={k}", ok


def _suite_chu(ns) -> Iterator[Case]:
    nspan, mspan, kspan = _span(ns.n, -5, 5), _span(ns.m, -5, 5), _span(ns.k, -6, 6)
    held: dict[tuple[int, int], tuple[int, int]] = {}  # (size, words) by value read

    def triples() -> Iterator[tuple[int, int, int]]:
        # k >= 0 for every n and m, then k < 0 for n, m < 0; a branch that
        # has no k, or no m, walks no n
        ks = range(max(kspan.start, 0), kspan.stop)
        if ks:
            yield from ((n, m, k) for n in nspan for m in mspan for k in ks)
        ks = range(kspan.start, min(kspan.stop, 0))
        negative_m = range(mspan.start, min(mspan.stop, 0))
        if ks and negative_m:
            negative_n = range(nspan.start, min(nspan.stop, 0))
            yield from ((n, m, k) for n in negative_n for m in negative_m for k in ks)

    def cost(n: int, m: int, k: int) -> Iterator[int]:
        # each term a case, the walk to each value no earlier triple read
        # (qbinom holds it), and each product packed in slots of the words of
        # both, shifted and added into a sum of the slots of [n + m, k]
        yield (abs(k) + 1) * CASE
        js = range(0, k + 1) if k >= 0 else range(-1, k, -1)
        values = [(n + m, k), *((n, i) for i in js), *((m, k - i) for i in js)]
        new = {value: _shape(*value)[2:] for value in values if value not in held}
        held.update(new)
        size, work = held[n + m, k][0], sum(_walk(*value) for value in new)
        for (a, u), (b, v) in ((held[n, i], held[m, k - i]) for i in js):
            work += _packed(a, b, u + v) + 2 * size * (u + v)
        yield work

    _check(chain.from_iterable(cost(*t) for t in triples()))
    from .qseries import verify_chu_vandermonde

    for n, m, k in triples():
        yield f"chu n={n} m={m} k={k}", verify_chu_vandermonde(n, m, k)


def _series(n: int, mode: str, trunc: int) -> list[tuple]:
    """The (k, coefficient) pairs of the window that `expand --mode` prints,
    in print order: k = 0, 1, ..., or k = n, n - 1, ... from infinity."""
    from .qseries import Direction, pochhammer_expansion, power_xy

    direction = Direction.FROM_ZERO
    if mode == "pochhammer":
        series = pochhammer_expansion(n, trunc)
    else:
        direction = Direction(mode.removeprefix("noncommutative-"))
        series = power_xy(n, direction, trunc)
    ks = range(n, n - trunc, -1) if direction is Direction.FROM_INFINITY else range(trunc)
    return [(k, series.coefficient(k)) for k in ks]


def _check_series(n_values: range, trunc: int, chains: int, each=_walk) -> None:
    """The size guard on `chains` windows of `trunc` entries, each a case: |n|
    passes of each chain over the values [n, i] it holds, and each(n, k)."""

    def cost(n: int) -> int:
        size = trunc if n < 0 else min(trunc, n + 1)
        window = sum(math.prod(_shape(n, i)[2:]) for i in range(size)) if size > 1 else 0
        return chains * abs(n) * window + sum(each(n, k) for k in range(trunc))

    _check(map(cost, n_values), chains * _cells(n_values, range(trunc)))


def _suite_qbt(ns) -> Iterator[Case]:
    # Commutative q-binomial theorem for the shifted factorial.
    n_values = _span(ns.n, -5, 5)
    _check_series(n_values, ns.trunc, 1)
    from .qbinom import qbinom

    for n in n_values:
        for k, c in _series(n, "pochhammer", ns.trunc):
            yield f"qbt n={n} k={k}", c == qbinom(n, k).shift(k * (k - 1) // 2)


def _suite_ncqbt(ns) -> Iterator[Case]:
    # Noncommutative binomial theorem, both expansion directions.
    n_values = _span(ns.n, -6, 6)
    # qbinom(n, k) = qbinom(n, n - k): the window from infinity holds the
    # values of the window from zero
    _check_series(n_values, ns.trunc, 2)
    from .qbinom import qbinom

    for n in n_values:
        for side, mode in zip(("zero", "inf"), EXPAND_MODES):
            for k, c in _series(n, mode, ns.trunc):
                yield f"ncqbt {side} n={n} k={k}", c == qbinom(n, k)


def _suite_lucas(ns) -> Iterator[Case]:
    p_values, n_values, k_values = _span(ns.p, 2, 11), _span(ns.n, -50, 50), _span(ns.k, -50, 50)
    # every p counts, and a case computes binomials of at most the words of
    # |binom(n, k)| < 2^(|n| + |k|), at (c)
    cases = _cells(p_values, n_values, k_values)
    bits = max(-n_values[0], n_values[-1]) + max(-k_values[0], k_values[-1])
    _check([cases * _words(bits) ** 2], cases)
    from .congruence import is_prime, lucas_product, verify_lucas
    from .qbinom import binom

    primes = [p for p in p_values if is_prime(p)]
    for p in primes:
        for n in n_values:
            for k in k_values:
                ok = verify_lucas(n, k, p)
                ok = ok and lucas_product(n, k, p) == binom(n, k) % p
                yield f"lucas p={p} n={n} k={k}", ok


def _suite_qlucas(ns) -> Iterator[Case]:
    moduli = _span(ns.m, 2, 9)
    if moduli[0] < 2:
        raise ValueError(f"modulus must be at least 2, got {moduli[0]}")
    n_values, k_values = _span(ns.n, -15, 15), _span(ns.k, -15, 15)
    cells, count = _cells(n_values, k_values), _cells(moduli)
    # each case folds both sides into at most m slots; each value of the box
    # is walked once and folded once a modulus; and the right sides walk to
    # [n0, k0] for the low digits n0, k0 base m of the box
    digits = (product({n % m for n in n_values}, {k % m for k in k_values}) for m in moduli)
    work = chain(
        [cells * (moduli.start + moduli.stop - 1) * count // 2],
        (_walk(n, k) + count * math.prod(_shape(n, k)[2:]) for n in n_values for k in k_values),
        (_walk(a, b) for pairs in digits for a, b in pairs),
    )
    _check(work, cells * count)
    box = [(n, k) for n in n_values for k in k_values]
    from .congruence import verify_q_lucas

    for m in moduli:
        for n, k in box:
            yield f"qlucas m={m} n={n} k={k}", verify_q_lucas(n, k, m)


def _suite_freshman(ns) -> Iterator[Case]:
    moduli = _span(ns.m, 2, 12)
    # freshman_congruence refuses a modulus below 2 at once; any other m
    # takes m passes over m + 1 residues of m slots of m + omega(m) + 2 bits
    counted = range(max(moduli.start, 2), max(moduli.stop, 2))
    work = (m * (m + 1) * _words(m * (m + m.bit_length() + 2) - 1) for m in counted)
    _check(work, _cells(counted))
    from .qseries import freshman_congruence

    for m in moduli:
        yield f"freshman m={m}", freshman_congruence(m)


APERY_CONGRUENCE_CASES = (
    (5, 1, 1, "beukers"),
    (5, 1, 5, "beukers"),
    (5, 1, 1, "coster"),
    (5, 1, 2, "coster"),
    (5, 2, 1, "coster"),
)


def _suite_apery(ns) -> Iterator[Case]:
    n_values = _span(ns.n, 0, 25)
    # Apery's recurrence runs once to the largest |n|, and twice to at most
    # A(p^r m) <= A(25) for each congruence case, two integers a pass; the
    # sum at -n multiplies out at most |n| + 5 terms of at most A(|n|)
    top = max(-n_values[0], n_values[-1])
    passes = top + 2 * sum(p**r * m for p, r, m, _ in APERY_CONGRUENCE_CASES)
    work = ((abs(n) + 5) * _apery_words(abs(n)) ** 2 for n in n_values)
    _check(chain([2 * passes * _apery_words(max(top, 25))], work), _cells(n_values) + 5)
    from .apery import verify_apery_congruence, verify_apery_symmetry

    for n in n_values:
        yield f"apery symmetry n={n}", verify_apery_symmetry(n)
    for p, r, m, variant in APERY_CONGRUENCE_CASES:
        ok = verify_apery_congruence(p, r, m, variant)
        yield f"apery {variant} p={p} r={r} m={m}", ok


SUITES: dict[str, Callable[[argparse.Namespace], Iterator[Case]]] = {
    "pascal": _suite_pascal,
    "symmetry": _suite_symmetry,
    "reflection": _suite_reflection,
    "qinv": _suite_qinv,
    "degrees": _suite_degrees,
    "subsets": _suite_subsets,
    "chu": _suite_chu,
    "qbt": _suite_qbt,
    "ncqbt": _suite_ncqbt,
    "lucas": _suite_lucas,
    "qlucas": _suite_qlucas,
    "freshman": _suite_freshman,
    "apery": _suite_apery,
}


# -- subcommands --------------------------------------------------------------


def _emit(ns, lines: Callable[[], Iterable[str]], body: Callable[[], dict]) -> None:
    """Print a result: with --format json, body() as one JSON line after the
    schema and the command; otherwise each of lines().  Only the form asked
    for is built, and Laurent polynomials serialize through to_json_dict."""
    if ns.format == "json":
        import json

        head = {"schema": SCHEMA, "command": ns.command}
        print(json.dumps({**head, **body()}, default=lambda poly: poly.to_json_dict()))
    else:
        for line in lines():
            print(line)


def _too_long(name: str) -> ValueError:
    return ValueError(
        f"{name} has more than {sys.get_int_max_str_digits():,} "
        "digits, the most this Python writes out (see PYTHONINTMAXSTRDIGITS)"
    )


def _int_text(value: int, name: str) -> str:
    try:
        return str(value)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise _too_long(name) from None


def _binom(n: int, k: int) -> int:
    """Term (c) for binom(n, k) and its text, after the int-to-text check."""
    top, j, _, words = _shape(n, k)
    # C(top, j) >= C(2j, j) >= 4^j / (2j + 1), and C(top, j) >= (top / j)^j
    bits = max(2 * j - (2 * j + 1).bit_length(), j * (top.bit_length() - j.bit_length() - 1))
    _check_text(bits, f"binom({n}, {k})")
    return 2 * words * words


def _grid(n_values: range, k_values: range, q1: bool) -> list[list]:
    """The rows of values over n_values x k_values, after the size guard:
    Laurent polynomials, or with q1 the decimal text of the integers."""
    cost = _binom if q1 else lambda n, k: _walk(n, k) + TEXT * _shape(n, k)[2]
    _check((cost(n, k) for n in n_values for k in k_values), _cells(n_values, k_values))
    from .qbinom import binom, qbinom

    if q1:
        return [[_int_text(binom(n, k), f"binom({n}, {k})") for k in k_values] for n in n_values]
    return [[qbinom(n, k) for k in k_values] for n in n_values]


def _eval(ns):
    return _grid(range(ns.n, ns.n + 1), range(ns.k, ns.k + 1), ns.q1)[0][0]


def _lucas(ns) -> int:
    # a divmod of n and of k for each digit base p, at most their bits of them
    bits = max(abs(ns.n), abs(ns.k)).bit_length()
    _check([bits * _words(bits)], 1)
    from .congruence import lucas_product

    return lucas_product(ns.n, ns.k, ns.p)


def _qlucas(ns):
    if ns.m < 2:
        raise ValueError(f"modulus must be at least 2, got {ns.m}")
    # q_lucas_rhs multiplies qbinom(n0, k0) by the integer binom(n1, k1),
    # and each coefficient of the product is written out at (c)
    (n1, n0), (k1, k0) = divmod(ns.n, ns.m), divmod(ns.k, ns.m)
    (_, _, size, words), big = _shape(n0, k0), _shape(n1, k1)[3]
    _check([_walk(n0, k0) + big * big + size * (TEXT + (words + big) ** 2)], 1)
    from .congruence import q_lucas_rhs

    return q_lucas_rhs(ns.n, ns.k, ns.m)


def _apery(ns) -> str:
    # A(n) = A(-n - 1) is at least its k = m term, C(2m, m)^2 >= 16^m / (4m),
    # and log2(4m) is below (4m).bit_length()
    m = max(ns.n, -ns.n - 1)
    _check_text(4 * m - (4 * m).bit_length(), f"A({ns.n})")
    # the recurrence runs m passes over two integers, then A(n) is written out
    _check([(2 * m + _apery_words(m)) * _apery_words(m)], 1)
    from .apery import apery

    return _int_text(apery(ns.n), f"A({ns.n})")


def _cmd_value(ns) -> int:
    """A one-value command: its row computes the value, and the JSON body
    echoes the row's options, then the value under the row's key."""
    row = COMMANDS[ns.command]
    value = row.value(ns)
    inputs = {flag[2:]: getattr(ns, flag[2:]) for flag in row.args}
    try:
        _emit(ns, lambda: [str(value)], lambda: {**inputs, row.key: value})
    except ValueError:  # a qlucas coefficient longer than sys.get_int_max_str_digits()
        raise _too_long(f"a coefficient of the {ns.command} value") from None
    return 0


def _cmd_table(ns) -> int:
    n_values = range(ns.n[0], ns.n[1] + 1)
    k_values = range(ns.k[0], ns.k[1] + 1)
    rows = list(zip(n_values, _grid(n_values, k_values, ns.q1)))

    def lines() -> Iterator[str]:
        yield "n\\k\t" + "\t".join(map(str, k_values))
        for n, values in rows:
            yield f"{n}\t" + "\t".join(map(str, values))

    _emit(
        ns,
        lines,
        lambda: {
            "q1": ns.q1,
            "cells": [
                {"n": n, "k": k, "value": v} for n, values in rows for k, v in zip(k_values, values)
            ],
        },
    )
    return 0


def _cmd_expand(ns) -> int:
    # qbinom(n, k) = qbinom(n, n - k), so every mode's window holds the
    # values [n, 0], [n, 1], ..., in that order
    _check_series(range(ns.n, ns.n + 1), ns.trunc, 1, lambda n, k: TEXT * _shape(n, k)[2])
    terms = _series(ns.n, ns.mode, ns.trunc)
    _emit(
        ns,
        lambda: (f"C({k}) = {c}" for k, c in terms),
        lambda: {
            "n": ns.n,
            "mode": ns.mode,
            "truncation": ns.trunc,
            "terms": [{"k": k, "value": c} for k, c in terms],
        },
    )
    return 0


def _cmd_verify(ns) -> int:
    if ns.trunc < 1:
        raise ValueError(f"--trunc must be at least 1, got {ns.trunc}")
    checked = skipped = 0
    failures: list[str] = []
    for case, outcome in SUITES[ns.suite](ns):
        if outcome == "skip":
            skipped += 1
            continue
        checked += 1
        if not outcome:
            failures.append(case)
    passed = checked - len(failures)

    def report() -> Iterator[str]:
        for case in failures:
            print(f"FAIL {case}", file=sys.stderr)
        yield f"checked {checked}, passed {passed}" + (f", skipped {skipped}" if skipped else "")

    _emit(
        ns,
        report,
        lambda: {
            "suite": ns.suite,
            "checked": checked,
            "passed": passed,
            "skipped": skipped,
            "failures": failures,
        },
    )
    return 0 if not failures else 1


# -- command table ------------------------------------------------------------
#
# One row per subcommand: its help, its options as add_argument keywords by
# flag and its handler.  A one-value command runs _cmd_value, and its row
# also gives the function that computes the value and the JSON key the value
# goes under.  Every subcommand's epilog is SIZE_NOTE.

Command = namedtuple("Command", "help args handler value key", defaults=(None, "value"))

_INT = {"type": int, "required": True}
_RANGE = {"type": parse_range, "required": True, "metavar": "LO..HI"}
_Q1 = {"action": "store_true", "help": "evaluate at q = 1"}

COMMANDS = {
    "eval": Command(
        "evaluate one coefficient",
        {"--n": _INT, "--k": _INT, "--q1": _Q1},
        _cmd_value,
        value=_eval,
    ),
    "table": Command(
        "emit a grid of values", {"--n": _RANGE, "--k": _RANGE, "--q1": _Q1}, _cmd_table
    ),
    "expand": Command(
        "series expansions",
        {
            "--n": _INT,
            "--mode": {"choices": EXPAND_MODES, "required": True},
            "--trunc": {"type": int, "default": 16},
        },
        _cmd_expand,
    ),
    "lucas": Command(
        "digit-wise binomial residue mod a prime",
        {"--n": _INT, "--k": _INT, "--p": _INT},
        _cmd_value,
        value=_lucas,
        key="residue",
    ),
    "qlucas": Command(
        "q-Lucas right-hand side mod Phi_m",
        {"--n": _INT, "--k": _INT, "--m": _INT},
        _cmd_value,
        value=_qlucas,
    ),
    "apery": Command("Apery number A(n)", {"--n": _INT}, _cmd_value, value=_apery),
    "verify": Command(
        "run an identity sweep",
        {
            "suite": {"choices": sorted(SUITES)},
            **dict.fromkeys(RANGE_FLAGS, {**_RANGE, "required": False}),
            "--trunc": {"type": int, "default": 10},
        },
        _cmd_verify,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="qneg",
        description="Exact q-binomial coefficients for all integer arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=row.help, epilog=SIZE_NOTE)
        for flag, spec in row.args.items():
            command.add_argument(flag, **spec)
        command.set_defaults(handler=row.handler)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write "--n -30..30" as "--n=-30..30".  argparse takes a token that
    starts with "-" and is not a plain negative number for an option name,
    so a negative range would otherwise lose its flag's value."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in RANGE_FLAGS and arg[:1] == "-" and arg[1:2].isdecimal():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return ns.handler(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early, as `qneg table ... | head` does.
        # That is not a failed verification: point stdout at devnull so the
        # flush at interpreter exit cannot raise again, and exit 0.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
