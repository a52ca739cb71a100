"""Seeded op streams for the three workloads.

An op is a tuple whose first field names its kind.  Each workload yields its
ops in cycles: one cycle holds every size stratum and every kind of op in
fixed proportions, and the seed only picks the exact values inside each
stratum.  The runner stops at cycle boundaries, so every run measures the
same mix and runs with different seeds stay comparable.  A `paired` stream
gives each two consecutive cycles the same strata, for trace runs that
compare a traced cycle with the untraced one before it.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from . import reference

Op = tuple
WORKLOADS = ("eval-large", "verify-deep", "sweep-cli")
NONZERO = ("classical", "negative_n", "double_negative")
SUITES = tuple(reference.VERIFY_LINES)
# Peak RSS is read after this many cycles: a fixed prefix of the stream, so a
# faster program, which gets through more ops and caches more results in the
# same time, is not charged for it.  The prefix is long enough for the
# cached results to dominate the peak rather than the largest single op.
RSS_CYCLES = {"eval-large": 2, "verify-deep": 20, "sweep-cli": 2}

# How many fresh draws a stratum may take to find an unused input before the
# stream ends; only a run far longer than the benchmark's would get there.
_DRAWS = 1000
# Steps of the low-discrepancy walk through each bin (fractional parts of
# the golden and silver ratios).
_GOLDEN, _SILVER = 0.6180339887498949, 0.4142135623730951


def _offset(rng: random.Random, c: int, step: float, loose: bool = False) -> float:
    """A point in [0, 1) for stratum c.  Successive strata walk through
    [0, 1) by `step`, and the seed moves each point by at most 1/8, so a few
    cycles sample every bin evenly whatever the seed.  A `loose` point is uniform
    instead, for a retry after a collision."""
    if loose:
        return rng.random()
    return (c * step + rng.random() / 8) % 1.0


def _strata(paired: bool) -> Iterator[int]:
    """The stratum index of each cycle: 0, 1, 2, ... or, paired, 0, 0, 1, 1, ..."""
    return (c // 2 if paired else c for c in itertools.count())


def place(rng: random.Random, reg: str, big: int, small: int) -> tuple[int, int]:
    """An (n, k) in region `reg` whose coefficient reduces to the classical
    [big, small] or [big, big - small], chosen at random."""
    kk = rng.choice((small, big - small))
    if reg == "classical":
        return big, kk
    if reg == "negative_n":
        return kk - big - 1, kk
    return -kk - 1, -big - 1


def _eval_large(rng: random.Random, paired: bool) -> Iterator[list[Op]]:
    # 36 qbinom + 6 apery per cycle (86% / 14%).  qbinom: twelve bins of the
    # reduced size N over 60..299 times three bins of K/N over 1/4..1/2, each
    # cell in one of the three nonzero regions so every region sees every
    # size.  No two ops share a reduced pair (N, K), so the cache never hits.
    used_pairs: set[tuple[int, int]] = set()
    used_apery: set[int] = set()
    for c in _strata(paired):
        cycle: list[Op] = []
        for i in range(12):
            for j in range(3):
                for attempt in range(_DRAWS):
                    big = 60 + 20 * i + int(20 * _offset(rng, c, _GOLDEN, attempt > 0))
                    small = int(big * (0.25 + (j + _offset(rng, c, _SILVER, attempt > 0)) / 12))
                    if (big, small) not in used_pairs:
                        break
                else:
                    return
                used_pairs.add((big, small))
                cycle.append(("qbinom", *place(rng, NONZERO[(i + j) % 3], big, small)))
        for i in range(6):
            for attempt in range(_DRAWS):
                n = 300 + 200 * i + int(200 * _offset(rng, c, _GOLDEN, attempt > 0))
                if n not in used_apery:
                    break
            else:
                return
            used_apery.add(n)
            cycle.append(("apery", n))
        yield cycle


def _oracle_pair(rng: random.Random, reg: str) -> tuple[int, int]:
    # Sizes where subset enumeration stays well under a second: at most
    # 5000 subsets, |n|, |k| <= 40.
    while True:
        big = rng.randint(4, 40)
        small = rng.randint(1, big // 2)
        n, k = place(rng, reg, big, small)
        if abs(n) <= 40 and abs(k) <= 40 and abs(reference.binom(n, k)) <= 5000:
            return n, k


def _verify_deep(rng: random.Random, paired: bool) -> Iterator[list[Op]]:
    # Per cycle: six q-Lucas groups of four moduli on one (n, k), two
    # negative controls, six Chu-Vandermonde cases, six three-way oracle
    # checks and two freshman's-dream checks.  Size bins rotate with the
    # stratum index c, so a few consecutive strata cover every bin.
    for c in _strata(paired):
        cycle: list[Op] = []
        for g in range(6):
            big = 20 + 30 * g + int(30 * _offset(rng, c, _GOLDEN))  # 20..199, so |n|, |k| <= 200
            share = (1 + 10 * ((g + c) % 3) + 10 * _offset(rng, c, _SILVER)) / 93  # K/N in 1/93..1/3
            n, k = place(rng, NONZERO[g % 3], big, max(2, int(big * share)))
            moduli = [2 + (63 * i + rng.randrange(63)) // 4 for i in range(4)]  # 2..64
            cycle.extend(("qlucas", n, k, m) for m in moduli)
            if g < 2:
                cycle.append(("negctl", n, k, moduli[g], rng.randint(-20, 20)))
        for i in range(6):
            k = int((i + _offset(rng, c, _GOLDEN)) * 21 / 6)  # 0..20
            n = (10 * ((i + c) % 4) + 1 + int(10 * _offset(rng, c, _SILVER))) * (1 if i % 2 else -1)
            m = (10 * ((i + 2 * c + 1) % 4) + 1 + int(10 * _offset(rng, c, _GOLDEN))) * (1 if i % 3 else -1)
            cycle.append(("chu", n, m, k))
        for i in range(6):
            cycle.append(("oracle", *_oracle_pair(rng, NONZERO[i % 3])))
        for i in range(2):
            cycle.append(("freshman", 2 + int((i + _offset(rng, c, _SILVER)) * 29 / 2)))  # 2..30
        yield cycle


def _sweep_cli(rng: random.Random, paired: bool) -> Iterator[list[Op]]:
    # One round: every verify suite at its defaults, then an 11 x 11 table
    # grid in text and another in json.  Each grid straddles the origin, so
    # it meets all four regions and its output size varies little by seed.
    while True:
        cycle: list[Op] = [("cli", ("verify", suite)) for suite in SUITES]
        for fmt in ("text", "json"):
            n0, k0 = rng.randint(-8, -2), rng.randint(-8, -2)
            argv = ("table", "--n", f"{n0}..{n0 + 10}", "--k", f"{k0}..{k0 + 10}", "--format", fmt)
            cycle.append(("cli", argv))
        yield cycle


_STREAMS = {"eval-large": _eval_large, "verify-deep": _verify_deep, "sweep-cli": _sweep_cli}


def cycles(workload: str, seed: int, paired: bool = False) -> Iterator[list[Op]]:
    """The op stream of `workload` for `seed`, one cycle at a time."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"), paired)


def pairs(op: Op) -> list[tuple[int, int]]:
    """The (n, k) arguments of q-binomials that `op` asks for by name, for
    the region mix; Chu-Vandermonde sums and sweeps are not counted."""
    kind = op[0]
    if kind in ("qbinom", "qlucas", "negctl", "oracle"):
        return [(op[1], op[2])]
    if kind == "cli" and op[1][0] == "table":
        argv = op[1]
        n_lo, n_hi = map(int, argv[2].split(".."))
        k_lo, k_hi = map(int, argv[4].split(".."))
        return [(n, k) for n in range(n_lo, n_hi + 1) for k in range(k_lo, k_hi + 1)]
    return []
