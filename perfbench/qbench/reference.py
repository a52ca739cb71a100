"""Reference values the harness checks qneg's outputs against.

Nothing here imports qneg.  The closed forms are re-derived from the paper
(Formichella & Straub, arXiv:1802.02684): every nonzero q-binomial is a sign
times a power of q times a classical Gaussian polynomial [N, K], and [N, K]
is checked through its values at q = 1, 2 and -1 rather than coefficient by
coefficient, so the check shares no code path with any evaluation route in
the library.
"""

from __future__ import annotations

import json
import math
import re

REGIONS = ("classical", "negative_n", "double_negative", "vanishing")

# `qneg verify <suite>` at its default ranges prints "checked N, passed N".
# The counts follow from the ranges documented for each suite.
VERIFY_LINES = {
    "pascal": "checked 624, passed 624, skipped 1",  # 25 x 25, (0, 0) skipped
    "symmetry": "checked 625, passed 625",  # n, k in -12..12
    "reflection": "checked 625, passed 625",
    "qinv": "checked 625, passed 625",
    "degrees": "checked 625, passed 625",
    "subsets": "checked 225, passed 225",  # n, k in -7..7
    # 11 x 11 pairs (n, m) in -5..5 times k in 0..6, plus 5 x 5 negative
    # pairs times k in -6..-1: 847 + 150.
    "chu": "checked 997, passed 997",
    "qbt": "checked 110, passed 110",  # n in -5..5, truncation 10
    "ncqbt": "checked 260, passed 260",  # n in -6..6, two directions x 10
    "lucas": "checked 51005, passed 51005",  # primes 2,3,5,7,11 x 101 x 101
    "qlucas": "checked 7688, passed 7688",  # m in 2..9 x 31 x 31
    "freshman": "checked 11, passed 11",  # m in 2..12
    "apery": "checked 31, passed 31",  # 26 symmetry + 5 supercongruences
}

# Known verdicts of the verifier calls in the verify-deep workload.  A
# negative control asks whether Phi_m divides a unit monomial, which it never
# does, so its verdict is False.
VERDICTS = {"qlucas": True, "negctl": False, "chu": True, "freshman": True}


def region(n: int, k: int) -> str:
    if n >= 0:
        return "classical" if 0 <= k <= n else "vanishing"
    if k >= 0:
        return "negative_n"
    return "double_negative" if k <= n else "vanishing"


def reduce(n: int, k: int) -> tuple[int, int, int, int] | None:
    """(sign, shift, N, K) with qbinom(n, k) = sign * q**shift * [N, K] and
    0 <= K <= N, or None where the coefficient vanishes."""
    reg = region(n, k)
    if reg == "classical":
        return 1, 0, n, k
    if reg == "negative_n":
        return (-1) ** k, k * n - k * (k - 1) // 2, k - n - 1, k
    if reg == "double_negative":
        return (-1) ** (n - k), (n * (n + 1) - k * (k + 1)) // 2, -k - 1, n - k
    return None


def binom(n: int, k: int) -> int:
    """The integer binomial coefficient for all integer n, k."""
    red = reduce(n, k)
    if red is None:
        return 0
    sign, _, big, small = red
    return sign * math.comb(big, small)


def gauss_at(big: int, small: int, q: int) -> int:
    """The classical Gaussian polynomial [big, small] evaluated at integer q."""
    if q == 1:
        return math.comb(big, small)
    if q == -1:
        if big % 2 == 0 and small % 2 == 1:
            return 0
        return math.comb(big // 2, small // 2)
    num = den = 1
    for i in range(1, small + 1):
        num *= q ** (big - small + i) - 1
        den *= q**i - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{big}, {small}] at q={q} is not an integer")
    return value


def eval_at_two(coeffs: tuple[int, ...] | list[int]) -> int:
    """Sum of coeffs[i] * 2**i, split in halves so big inputs stay fast."""
    if len(coeffs) <= 64:
        acc = 0
        for c in reversed(coeffs):
            acc = 2 * acc + c
        return acc
    mid = len(coeffs) // 2
    return eval_at_two(coeffs[:mid]) + (eval_at_two(coeffs[mid:]) << mid)


def qbinom_error(n: int, k: int, val: int, coeffs: tuple[int, ...] | list[int]) -> str | None:
    """Why the Laurent polynomial q**val * sum(coeffs[i] q**i) is not
    qbinom(n, k) in canonical form, or None if it is."""
    red = reduce(n, k)
    if red is None:
        return None if not coeffs else f"qbinom({n}, {k}) should vanish"
    sign, shift, big, small = red
    where = f"qbinom({n}, {k})"
    if not coeffs or coeffs[0] == 0 or coeffs[-1] == 0:
        return f"{where} is not canonical"
    if val != shift or len(coeffs) != small * (big - small) + 1:
        return f"{where} has the wrong valuation or degree"
    if sum(coeffs) != sign * gauss_at(big, small, 1):
        return f"{where} is wrong at q=1"
    if sum(coeffs[0::2]) - sum(coeffs[1::2]) != sign * gauss_at(big, small, -1):
        return f"{where} is wrong at q=-1"
    if eval_at_two(coeffs) != sign * gauss_at(big, small, 2):
        return f"{where} is wrong at q=2"
    return None


def apery_upto(top: int) -> list[int]:
    """A(0..top) by the three-term recurrence
    n^3 u_n = (34n^3 - 51n^2 + 27n - 5) u_{n-1} - (n-1)^3 u_{n-2}."""
    u = [1, 5]
    for n in range(2, top + 1):
        num = (34 * n**3 - 51 * n**2 + 27 * n - 5) * u[-1] - (n - 1) ** 3 * u[-2]
        value, rem = divmod(num, n**3)
        if rem:
            raise ArithmeticError(f"Apery recurrence left a remainder at n={n}")
        u.append(value)
    return u[: top + 1]


# -- command-line output ------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*)?q(?:\^(-?\d+))?$")


def parse_poly(text: str) -> tuple[int, list[int]]:
    """Parse the documented text rendering of a Laurent polynomial into
    (valuation, coefficients).  Raises ValueError on anything not in the
    canonical rendering: terms must ascend and coefficients be nonzero."""
    if text == "0":
        return 0, []
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    terms: list[tuple[int, int]] = []
    for sign, body in zip(signs, bodies):
        if body.isdigit():
            exp, mag = 0, int(body)
        else:
            match = _TERM.match(body)
            if match is None:
                raise ValueError(f"malformed term {body!r}")
            mag = int(match.group(1) or 1)
            exp = int(match.group(2) or 1)
            if match.group(1) == "1" or exp in (0, 1) and match.group(2):
                raise ValueError(f"non-canonical term {body!r}")
        if mag == 0 or terms and exp <= terms[-1][0]:
            raise ValueError(f"non-canonical term {body!r}")
        terms.append((exp, mag if sign == "+" else -mag))
    val = terms[0][0]
    coeffs = [0] * (terms[-1][0] - val + 1)
    for exp, c in terms:
        coeffs[exp - val] = c
    return val, coeffs


def table_error(argv: tuple[str, ...], stdout: str) -> str | None:
    """Check the output of `qneg table --n A..B --k C..D [--format json]`:
    every cell of the grid is present once and passes qbinom_error."""
    n_lo, n_hi = map(int, argv[argv.index("--n") + 1].split(".."))
    k_lo, k_hi = map(int, argv[argv.index("--k") + 1].split(".."))
    grid = [(n, k) for n in range(n_lo, n_hi + 1) for k in range(k_lo, k_hi + 1)]
    try:
        if "json" in argv:
            body = json.loads(stdout)
            cells = [
                (c["n"], c["k"], c["value"]["valuation"], [int(x) for x in c["value"]["coefficients"]])
                for c in body["cells"]
            ]
        else:
            lines = stdout.splitlines()
            header = "n\\k\t" + "\t".join(str(k) for k in range(k_lo, k_hi + 1))
            if lines[0] != header or len(lines) != n_hi - n_lo + 2:
                return "table layout is wrong"
            cells = []
            for n, line in zip(range(n_lo, n_hi + 1), lines[1:]):
                row = line.split("\t")
                if row[0] != str(n) or len(row) != k_hi - k_lo + 2:
                    return f"table row {n} is malformed"
                for k, text in zip(range(k_lo, k_hi + 1), row[1:]):
                    cells.append((n, k, *parse_poly(text)))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"table output does not parse: {exc}"
    if [(n, k) for n, k, _, _ in cells] != grid:
        return "table cells do not match the requested grid"
    for n, k, val, coeffs in cells:
        err = qbinom_error(n, k, val, coeffs)
        if err:
            return err
    return None
