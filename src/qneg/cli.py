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

SCHEMA = "qneg/1"

EXPAND_MODES = (
    "noncommutative-from-zero",
    "noncommutative-from-infinity",
    "pochhammer",
)

# qbinom(n, k) has k(n - k) + 1 coefficients for 0 <= k <= n, so a careless
# argument can ask for billions.  The limit admits README's 81 x 81 table
# (859,361 coefficients).  One value of a quarter of it, qbinom(1000, 500),
# takes about 8 s as `qneg eval` on a 2-core x86-64 machine (CPython 3.11).
MAX_COEFFICIENTS = 1_000_000
SIZE_NOTE = (
    f"A request whose values hold more than {MAX_COEFFICIENTS:,} coefficients "
    "in all (a zero value counts as one; with --q1, a value counts as a bound "
    "on its decimal digits) is refused with exit status 2."
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


# -- verification suites ----------------------------------------------------
#
# Each suite streams (case id, outcome) in a fixed order; the aggregate
# report is therefore deterministic however the sweep is scheduled.


def _box(ns, half: int) -> Iterator[tuple[int, int]]:
    """The (n, k) pairs of --n x --k, each -half..half by default, n-major,
    after the size guard on their values."""
    n_values, k_values = _span(ns.n, -half, half), _span(ns.k, -half, half)
    _check_size(n_values, k_values, False)
    return ((n, k) for n in n_values for k in k_values)


def _suite_pascal(ns) -> Iterator[Case]:
    # q-Pascal, its alternate form, and the absorption identity.
    box = _box(ns, 12)
    from .laurent import ONE, LaurentPoly
    from .qbinom import qbinom

    def cross(x, e):
        # (1 - q^e) * x; 1 - q^e holds |e| + 1 coefficients, so it is
        # formed only to multiply a nonzero x
        return (ONE - LaurentPoly.q_power(e)) * x if x.coeffs else x

    for n, k in box:
        case = f"pascal n={n} k={k}"
        if (n, k) == (0, 0):
            yield case, "skip"
            continue
        lhs = qbinom(n, k)
        ok = lhs == qbinom(n - 1, k - 1) + qbinom(n - 1, k).shift(k)
        ok = ok and lhs == qbinom(n - 1, k - 1).shift(n - k) + qbinom(n - 1, k)
        if ok and k != 0:
            ok = cross(lhs, k) == cross(qbinom(n - 1, k - 1), n)
        yield case, ok


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


def _suite_subsets(ns) -> Iterator[Case]:
    box = list(_box(ns, 7))
    # each of the |binom(n, k)| = comb(top, j) subsets is enumerated
    pairs = (_classical_pair(n, k) for n, k in box)
    _check_total((math.comb(t, j) if 0 <= j <= t else 0 for t, j in pairs), "subsets")
    from .hybridset import qbinom_via_subsets, subset_count
    from .qbinom import binom, qbinom, qbinom_pascal

    for n, k in box:
        ok = qbinom_via_subsets(n, k) == qbinom(n, k)
        ok = ok and subset_count(n, k) == abs(binom(n, k))
        ok = ok and qbinom_pascal(n, k) == qbinom(n, k)
        yield f"subsets n={n} k={k}", ok


def _suite_chu(ns) -> Iterator[Case]:
    nspan, mspan, kspan = _span(ns.n, -5, 5), _span(ns.m, -5, 5), _span(ns.k, -6, 6)

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

    # the sum has up to |k| + 1 terms, each counted at the size of [n + m, k]
    sizes = ((abs(k) + 1) * _value_size(n + m, k, False) for n, m, k in triples())
    _check_total(sizes, "coefficients")
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


def _suite_qbt(ns) -> Iterator[Case]:
    # Commutative q-binomial theorem for the shifted factorial.
    n_values = _span(ns.n, -5, 5)
    _check_size(n_values, range(ns.trunc), False)
    from .qbinom import qbinom

    for n in n_values:
        for k, c in _series(n, "pochhammer", ns.trunc):
            yield f"qbt n={n} k={k}", c == qbinom(n, k).shift(k * (k - 1) // 2)


def _suite_ncqbt(ns) -> Iterator[Case]:
    # Noncommutative binomial theorem, both expansion directions.
    n_values = _span(ns.n, -6, 6)
    # qbinom(n, k) = qbinom(n, n - k): the window from infinity holds the
    # values of the window from zero
    _check_size(n_values, range(ns.trunc), False, copies=2)
    from .qbinom import qbinom

    for n in n_values:
        for side, mode in zip(("zero", "inf"), EXPAND_MODES):
            for k, c in _series(n, mode, ns.trunc):
                yield f"ncqbt {side} n={n} k={k}", c == qbinom(n, k)


def _suite_lucas(ns) -> Iterator[Case]:
    p_values, n_values, k_values = _span(ns.p, 2, 11), _span(ns.n, -50, 50), _span(ns.k, -50, 50)
    # each case counts one, and the largest binom(n, k) that a case builds,
    # below 2^(|n| + |k|) on every region, counts its digits
    bits = max(-n_values[0], n_values[-1]) + max(-k_values[0], k_values[-1])
    cases = (p_values.stop - p_values.start) * (n_values.stop - n_values.start)
    cases *= k_values.stop - k_values.start
    _check_total([cases, bits * 30103 // 100000 + 1], "digits")
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
    # each case folds into at most m slots, so a modulus counts m
    _check_total(moduli, "coefficients")
    box = list(_box(ns, 15))
    from .congruence import verify_q_lucas

    for m in moduli:
        for n, k in box:
            yield f"qlucas m={m} n={n} k={k}", verify_q_lucas(n, k, m)


def _suite_freshman(ns) -> Iterator[Case]:
    moduli = _span(ns.m, 2, 12)
    _check_size(moduli, range(moduli[-1] + 1), False)
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


def _apery_digits(m: int) -> int:
    """A bound on the decimal digits of A(m), m >= 0.  With
    t_k = C(m, k) C(m + k, k), A(m) is at most (sum of t_k)^2 = P_m(3)^2,
    and Laplace's integral for the Legendre polynomial gives
    P_m(3) <= (3 + 2 sqrt 2)^m, so A(m) < 34^m for m >= 1: it has at most
    m log10(34) + 1 digits, log10(34) < 1.5315."""
    return m * 15315 // 10000 + 1


def _suite_apery(ns) -> Iterator[Case]:
    n_values = _span(ns.n, 0, 25)
    # the sum at -n has at most |n| + 1 terms, each at most A(|n|) or A(|n| - 1)
    _check_total(((abs(n) + 1) * _apery_digits(abs(n)) for n in n_values), "digits")
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


def _classical_pair(n: int, k: int) -> tuple[int, int]:
    """(top, j): qbinom(n, k) is a sign and a power of q times the classical
    [top, j], of j(top - j) + 1 coefficients and comb(top, j) at q = 1, when
    0 <= j <= top, by the reflections, and zero otherwise."""
    return (n, k) if n >= 0 else (k - n - 1, k) if k >= 0 else (-k - 1, -n - 1)


def _value_size(n: int, k: int, q1: bool) -> int:
    """The coefficients of qbinom(n, k), or with q1 an upper bound on the
    decimal digits of binom(n, k); a zero counts as one."""
    top, j = _classical_pair(n, k)
    if not 0 <= j <= top:
        return 1
    if not q1:
        return j * (top - j) + 1
    # comb(top, j) <= min(2**top, (e * top / j)**j) < 2**bits
    j = min(j, top - j)
    bits = min(top, j * (top.bit_length() - j.bit_length() + 3))
    return bits * 30103 // 100000 + 1


def _check_size(n_values: range, k_values: range, q1: bool, copies: int = 1) -> None:
    """Refuse, as a usage error, a grid whose values, each held `copies`
    times, hold more than MAX_COEFFICIENTS coefficients, or with q1 digits,
    in all."""
    sizes = (copies * _value_size(n, k, q1) for n in n_values for k in k_values)
    # each value counts one or more, so a grid of more cells than the limit,
    # or of none, needs no count; range ends, not len(), count any length
    cells = copies * (n_values.stop - n_values.start) * (k_values.stop - k_values.start)
    counted = sizes if 0 < cells <= MAX_COEFFICIENTS else [cells]
    _check_total(counted, "digits" if q1 else "coefficients")


def _check_total(sizes: Iterable[int], unit: str) -> None:
    """Refuse, as a usage error, sizes that sum to more than MAX_COEFFICIENTS.
    The sum stops at the first size that takes it past the limit."""
    from itertools import accumulate

    total = next((t for t in accumulate(sizes) if t > MAX_COEFFICIENTS), 0)
    if total:
        raise ValueError(
            f"the result is too large ({total:,} {unit} by estimate; "
            f"the limit is {MAX_COEFFICIENTS:,})"
        )


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


def _grid(n_values: range, k_values: range, q1: bool) -> list[list]:
    """The rows of values over n_values x k_values, after the size guard:
    Laurent polynomials, or with q1 the decimal text of the integers."""
    _check_size(n_values, k_values, q1)
    from .qbinom import binom, qbinom

    if q1:
        return [[_int_text(binom(n, k), f"binom({n}, {k})") for k in k_values] for n in n_values]
    return [[qbinom(n, k) for k in k_values] for n in n_values]


def _eval(ns):
    return _grid(range(ns.n, ns.n + 1), range(ns.k, ns.k + 1), ns.q1)[0][0]


def _lucas(ns) -> int:
    from .congruence import lucas_product

    return lucas_product(ns.n, ns.k, ns.p)


def _qlucas(ns):
    if ns.m < 2:
        raise ValueError(f"modulus must be at least 2, got {ns.m}")
    # q_lucas_rhs multiplies qbinom(n0, k0) by the integer binom(n1, k1), so
    # each of its coefficients has at most the digits of that integer
    n1, n0 = divmod(ns.n, ns.m)
    k1, k0 = divmod(ns.k, ns.m)
    _check_total([_value_size(n0, k0, False) * _value_size(n1, k1, True)], "digits")
    from .congruence import q_lucas_rhs

    return q_lucas_rhs(ns.n, ns.k, ns.m)


def _apery(ns) -> str:
    # A(n) = A(-n - 1) is at least its k = m term, C(2m, m)^2 >= 16^m / (4m),
    # so it has more than (4m - log2(4m)) log10(2) digits, and log2(4m) is
    # below (4m).bit_length(), log10(2) above 0.30102.  Without a limit, the
    # digit bound of A(m) is held to MAX_COEFFICIENTS.
    m = max(ns.n, -ns.n - 1)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (4 * m - (4 * m).bit_length()) * 30102 // 100000 > limit:
        raise _too_long(f"A({ns.n})")
    _check_total([_apery_digits(m)], "digits")
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
    _check_size(range(ns.n, ns.n + 1), range(ns.trunc), False)
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
# flag, its handler and its epilog.  A one-value command runs _cmd_value, and
# its row also gives the function that computes the value and the JSON key
# the value goes under.

Command = namedtuple(
    "Command", "help args handler epilog value key", defaults=(None, None, "value")
)

_INT = {"type": int, "required": True}
_RANGE = {"type": parse_range, "required": True, "metavar": "LO..HI"}
_Q1 = {"action": "store_true", "help": "evaluate at q = 1"}

COMMANDS = {
    "eval": Command(
        "evaluate one coefficient",
        {"--n": _INT, "--k": _INT, "--q1": _Q1},
        _cmd_value,
        SIZE_NOTE,
        value=_eval,
    ),
    "table": Command(
        "emit a grid of values", {"--n": _RANGE, "--k": _RANGE, "--q1": _Q1}, _cmd_table, SIZE_NOTE
    ),
    "expand": Command(
        "series expansions",
        {
            "--n": _INT,
            "--mode": {"choices": EXPAND_MODES, "required": True},
            "--trunc": {"type": int, "default": 16},
        },
        _cmd_expand,
        SIZE_NOTE,
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
        command = sub.add_parser(name, parents=[common], help=row.help, epilog=row.epilog)
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
