"""Span timers around qneg's public functions, installed from outside.

Each traced function is replaced, on every ``qneg.*`` module attribute bound
to it, by a wrapper that opens a span (name, start, end, parent) on entry and
closes it on exit.  The modules import names from each other directly, so
patching only the defining module would miss most calls.  ``LaurentPoly``'s
``*`` and ``+`` are wrapped on the class.  Spans are folded into per-name
totals as they close: call count and self time, which is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from . import reference

# layer (qneg module) -> traced public functions
FUNCTIONS = {
    "laurent": ("divides", "cyclotomic_poly"),
    "qbinom": ("qbinom", "qbinom_pascal", "binom"),
    "hybridset": ("qbinom_via_subsets", "subset_count"),
    "qseries": ("verify_chu_vandermonde", "power_xy", "pochhammer_expansion", "freshman_congruence"),
    "congruence": ("verify_q_lucas", "verify_lucas", "lucas_product", "is_prime"),
    "apery": ("apery", "verify_apery_congruence"),
    "cli": ("main",),
}
# span name -> LaurentPoly operator slots that share it
OPERATORS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__")}
CACHED = ("qbinom", "qbinom_pascal")
# An operand with more coefficients than this counts as large.
LARGE = 1000

SPANS = tuple(f"laurent.{op}" for op in OPERATORS) + tuple(
    f"{layer}.{name}" for layer, names in FUNCTIONS.items() for name in names
)
COUNTS = (
    "laurent.mul.poly_calls",
    "laurent.mul.coeff_products",
    "laurent.mul.large_calls",
    "laurent.divides.coeff_ops",
    "laurent.divides.large_calls",
    "qbinom.qbinom.out_coeffs",
    "hybridset.subsets_enumerated",
)


def _size(x) -> int:
    return len(getattr(x, "coeffs", ()))


def _count_mul(counts: Counter, args: tuple, result) -> None:
    a, b = args
    if hasattr(b, "coeffs"):  # products with a scalar are not counted
        counts["laurent.mul.poly_calls"] += 1
        counts["laurent.mul.coeff_products"] += _size(a) * _size(b)
        counts["laurent.mul.large_calls"] += max(_size(a), _size(b)) > LARGE


def _count_divides(counts: Counter, args: tuple, result) -> None:
    d, a = args
    counts["laurent.divides.coeff_ops"] += max(0, _size(a) - _size(d) + 1) * _size(d)
    counts["laurent.divides.large_calls"] += max(_size(a), _size(d)) > LARGE


def _count_qbinom(counts: Counter, args: tuple, result) -> None:
    counts["qbinom.qbinom.out_coeffs"] += _size(result)


def _count_subsets(counts: Counter, args: tuple, result) -> None:
    counts["hybridset.subsets_enumerated"] += abs(reference.binom(*args))


HOOKS: dict[str, Callable[[Counter, tuple, object], None]] = {
    "laurent.mul": _count_mul,
    "laurent.divides": _count_divides,
    "qbinom.qbinom": _count_qbinom,
    "hybridset.qbinom_via_subsets": _count_subsets,
    "hybridset.subset_count": _count_subsets,
}


def qneg_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "qneg" or name.startswith("qneg.")]


def is_wrapper(obj) -> bool:
    return getattr(obj, "__qbench_span__", None) is not None


class Tracer:
    """Install with ``with Tracer() as t:``; the wrappers are removed again
    on exit, and the totals stay readable on ``t``."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # open spans: [start, child time]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        stack, hook = self._stack, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                duration = clock() - span[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - span[1]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__qbench_span__ = name
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"qneg.{layer}") for layer in FUNCTIONS}
        family = qneg_modules()
        for layer, names in FUNCTIONS.items():
            for name in names:
                fn = getattr(layers[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for mod in family:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        self._replace(mod, attr, wrapper)
        poly = layers["laurent"].LaurentPoly
        for op, slots in OPERATORS.items():
            wrappers: dict[int, Callable] = {}
            for slot in slots:
                fn = poly.__dict__[slot]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"laurent.{op}", "laurent", fn)
                self._replace(poly, slot, wrappers[id(fn)])

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> dict[str, float]:
        """Every span's calls and self time, every layer's error count and
        every extra count, keyed by metric name; absent ones read 0."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in FUNCTIONS:
            out[f"{layer}.errors"] = self.errors[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the process-wide caches of qbinom and qbinom_pascal."""
    mod = importlib.import_module("qneg.qbinom")
    return {name: tuple(getattr(mod, name).cache_info()[:2]) for name in CACHED}


def cache_counts(before: dict[str, tuple[int, int]]) -> Counter:
    """Cache hits and misses since `before`, keyed by metric name."""
    out: Counter = Counter()
    for name, (hits, misses) in cache_stats().items():
        out[f"cache.{name}.hits"] = hits - before[name][0]
        out[f"cache.{name}.misses"] = misses - before[name][1]
    return out
