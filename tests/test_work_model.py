"""The size guard's work model against the work that admitted requests do.

Each request runs through `cli.main` in-process, from cold qbinom and Apery
caches, with wrappers that count the 64-bit words written by the kernel's
running sums, by the entries of every factor chain and the sums they enter,
by every other sum or difference of Laurent polynomials, by the folds of
each q-Lucas case, by the subsets enumerated, by the integer binomials of
`--q1` and the lucas sweep, and by the terms and recurrence steps of the
Apery numbers.  A product of packed integers of x <= y words counts the
y * x^0.585 word products of CPython's Karatsuba multiplication and the
words it writes.  The count must stay within the word terms of the
estimate that the guard checked, its per-case charge left out.  Nothing
here reads a clock.  The memory a request holds at its peak, which
tracemalloc reads, must also stay within those terms at 8 bytes a word.
"""

import contextlib
import importlib
import io
import math
import tracemalloc

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import qneg.cli as cli
from qneg.laurent import LaurentPoly

QBINOM, QSERIES, LAURENT, HYBRIDSET, APERY = (
    importlib.import_module(f"qneg.{name}")
    for name in ("qbinom", "qseries", "laurent", "hybridset", "apery")
)


def _words(x):
    """The words of a Laurent polynomial, a list of ints or one int (none
    for 0, which CPython does not allocate)."""
    if isinstance(x, LaurentPoly):
        x = x.coeffs
    if isinstance(x, int):
        return (abs(x).bit_length() + 63) // 64
    return len(x) * (max(map(abs, x), default=0).bit_length() // 64 + 1)


def _karatsuba(x, y):
    small, large = sorted((x, y))
    return large * math.ceil(small**0.585)


@contextlib.contextmanager
def counted_work():
    """Yield a list whose one entry counts the words written while the
    wrappers are installed, and the (terms, cases) that `cli._check` saw."""
    work, checks = [0], []
    saved = [
        (module, name, getattr(module, name))
        for module, name in [
            (QBINOM, "_divide_by_one_minus_q_power"),
            (QSERIES, "_factor_chain"),
            (LAURENT, "_fold"),
            (LAURENT, "_pack"),
            (LAURENT, "_kronecker_mul"),
            (LaurentPoly, "_merge"),
            (QSERIES, "_products_sum_equals"),
            (HYBRIDSET, "_sigmas"),
            (QBINOM, "binom"),
            (APERY, "_term"),
            (APERY, "apery"),
            (cli, "_check"),
        ]
    ]
    divide, chain, fold, pack, kronecker, merge, products_sum, sigmas, binom, term, apery, check = (
        original for *_, original in saved
    )
    packed = []  # the words of each integer packed since the last product
    chaining = []  # nonempty while a factor chain, which counts its own sums, runs

    def counting_divide(prod, i):
        divide(prod, i)
        work[0] += _words(prod)

    def counting_chain(n, truncation, exponent, one=QSERIES.ONE, shift=LaurentPoly.shift):
        def counting_shift(c, e):
            # the shifted entry, and the sum or difference it enters
            shifted = shift(c, e)
            work[0] += 2 * _words(shifted)
            return shifted

        chaining.append(n)
        try:
            return chain(n, truncation, exponent, one, counting_shift)
        finally:
            chaining.pop()

    def counting_fold(a, m, shift, size):
        work[0] += _words(a) + size
        return fold(a, m, shift, size)

    def counting_pack(coeffs, width):
        value = pack(coeffs, width)
        packed.append(_words(value))
        return value

    def counting_kronecker(a, b):
        packed.clear()
        out = kronecker(a, b)
        work[0] += _karatsuba(*packed) + sum(packed)
        return out

    def counting_merge(a, b, op):
        # the slots of the joint span of a sum or difference of nonzero
        # polynomials, and the words of the result
        out = merge(a, b, op)
        if not chaining and isinstance(b, LaurentPoly) and a.coeffs and b.coeffs:
            lo, hi = min(a.val, b.val), max(a.val + len(a.coeffs), b.val + len(b.coeffs))
            work[0] += hi - lo + _words(out)
        return out

    def counting_products_sum(terms, c):
        # each product, shifted and added into a sum as long as c packed
        packed.clear()
        equal = products_sum(terms, c)
        *factors, total = packed
        for x, y in zip(factors[::2], factors[1::2]):
            work[0] += _karatsuba(x, y) + x + y + 2 * total
        return equal

    def counting_sigmas(n, k):
        # each combination, of k elements or of n - k extras, and its sum
        size = k if k >= 0 else n - k
        for sigma in sigmas(n, k):
            work[0] += size + 1
            yield sigma

    def counting_binom(n, k):
        value = binom(n, k)
        work[0] += _words(value)
        return value

    def counting_term(n, k):
        value = term(n, k)
        work[0] += _words(value)
        return value

    def counting_apery(n):
        # each step of the recurrence from the largest held index writes
        # two integers of at most the words of the result
        top = max(n, -n - 1)
        start = max(m for m in APERY._HELD if m <= top)
        value = apery(n)
        work[0] += 2 * (top - start) * _words(value)
        return value

    def recording_check(terms, cases=0):
        terms = list(terms)
        checks.append((terms, cases))
        check(terms, cases)

    wrappers = [
        counting_divide, counting_chain, counting_fold, counting_pack, counting_kronecker,
        counting_merge, counting_products_sum, counting_sigmas, counting_binom, counting_term,
        counting_apery, recording_check,
    ]  # fmt: skip
    for (module, name, _), wrapper in zip(saved, wrappers):
        setattr(module, name, wrapper)
    try:
        yield work, checks
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _range(lo, width):
    return f"{lo}..{lo + width}"


_small = st.integers(0, 3)
REQUESTS = st.one_of(
    st.builds(
        lambda n, k, q1: ["eval", "--n", str(n), "--k", str(k)] + q1,
        st.integers(-400, 400), st.integers(-400, 400), st.sampled_from([[], ["--q1"]]),
    ),
    st.builds(
        lambda n, k: ["eval", "--n", str(n), "--k", str(k)], st.integers(0, 400), st.integers(0, 40)
    ),
    st.builds(
        lambda n, w, k, h, q1: ["table", "--n", _range(n, w), "--k", _range(k, h)] + q1,
        st.integers(-60, 60), _small, st.integers(-60, 60), _small, st.sampled_from([[], ["--q1"]]),
    ),
    st.builds(
        lambda suite, n, w, k, h: ["verify", suite, "--n", _range(n, w), "--k", _range(k, h)],
        st.sampled_from(["pascal", "symmetry", "reflection", "qinv", "degrees", "lucas"]),
        st.integers(-60, 60), _small, st.integers(-60, 60), _small,
    ),
    st.builds(
        lambda n, w, k, h: ["verify", "subsets", "--n", _range(n, w), "--k", _range(k, h)],
        st.integers(-8, 10), _small, st.integers(-8, 10), _small,
    ),
    st.builds(
        lambda n, m, k, h: ["verify", "chu", "--n", _range(n, 1), "--m", _range(m, 1), "--k", _range(k, h)],
        st.integers(-40, 40), st.integers(-40, 40), st.integers(-12, 12), _small,
    ),
    st.builds(
        lambda suite, n, w, t: ["verify", suite, "--n", _range(n, w), "--trunc", str(t)],
        st.sampled_from(["qbt", "ncqbt"]), st.integers(-150, 150), _small, st.integers(1, 8),
    ),
    st.builds(
        lambda n, mode, t: ["expand", "--n", str(n), "--mode", mode, "--trunc", str(t)],
        st.integers(-150, 150), st.sampled_from(cli.EXPAND_MODES), st.integers(1, 12),
    ),
    st.builds(
        lambda m, w: ["verify", "freshman", "--m", _range(m, w)], st.integers(2, 80), _small
    ),
    st.builds(
        lambda m, w, n, k: ["verify", "qlucas", "--m", _range(m, w), "--n", _range(n, 3), "--k", _range(k, 3)],
        st.integers(2, 40), _small, st.integers(-30, 30), st.integers(-30, 30),
    ),
    st.builds(lambda n: ["apery", "--n", str(n)], st.integers(-3000, 3000)),
    st.builds(lambda n, w: ["verify", "apery", "--n", _range(n, w)], st.integers(-60, 60), _small),
)  # fmt: skip


def run_counted(argv):
    """The exit status, the words counted, and the word terms checked."""
    QBINOM.qbinom.cache_clear()
    APERY._PAIRS.clear()
    APERY._PAIRS[0] = (1, 1)
    APERY._HELD[:] = [0]
    with counted_work() as (work, checks), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert len(checks) == 1
    return code, work[0], sum(checks[0][0])


@seed(20180207)
@settings(max_examples=400, deadline=None)
@given(REQUESTS)
def test_admitted_work_stays_within_the_word_terms(argv):
    code, work, terms = run_counted(argv)
    assume(code == 0)  # a refused request does no work to count
    assert work <= terms, (argv, work, terms)


@pytest.mark.parametrize(
    "args",
    [
        "verify symmetry --n 200 --k 100",
        "verify pascal --n 2000 --k 3",
        "verify pascal --n 100000 --k 3",
        "verify symmetry --n 1000000 --k 3",
        "verify chu --n 60 --m 60 --k 30",
        "verify subsets --n 16 --k 8",
        "verify qbt --n -300 --trunc 10",
        "expand --n 120 --mode noncommutative-from-infinity --trunc 60",
        "verify freshman --m 150",
        "verify qlucas --m 40..44 --n 0..12 --k 0..12",
        "apery --n 2500",
        "verify apery --n -100..100",
    ],
)
def test_the_term_that_dominates_a_request_bounds_its_work(args):
    # each request spends nearly all its work in one term; it must be
    # admitted, and the words counted must stay within the word terms
    code, work, terms = run_counted(args.split())
    assert code == 0 and work <= terms, (work, terms)


@pytest.mark.parametrize(
    "args",
    [
        "verify qinv --n 5000000 --k 1",
        "verify symmetry --n 100000 --k 3",
        "verify degrees --n 5000 --k 10",
        "eval --n 160 --k 80",
        "verify pascal --n -15..15 --k -15..15",
    ],
)
def test_peak_memory_stays_within_the_word_terms(args):
    # a held coefficient is an int object and a slot, about OBJECT words,
    # which a thin value's one-word coefficients did not cover: the first
    # request peaked at 1.33 times its word terms without that charge
    tracemalloc.start()
    try:
        code, _, terms = run_counted(args.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak <= 8 * terms, (peak, terms)
