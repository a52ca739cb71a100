"""Exact Gaussian (q-)binomial coefficients for all integer arguments.

Every coefficient is an integer Laurent polynomial in q, computed exactly.
The package provides three independent evaluation routes (closed forms, the
q-Pascal recursion, and subset enumeration over hybrid sets), expansions in
q-commuting variables, Lucas congruences modulo primes and their q-analogs
modulo cyclotomic polynomials, and the Apery-number application.

Submodules load on first use (PEP 562): ``import qneg`` loads none of them,
and ``qneg.<name>`` reads the name from its defining module on every access.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: f"{__name__}.{module}"
    for module, names in {
        "laurent": "InvariantError LaurentPoly CyclotomicModulus ZERO ONE cyclotomic "
        "cyclotomic_poly divides congruent_mod",
        "qbinom": "Region sgn region qbinom qbinom_pascal binom six_forms degree_profile",
        "hybridset": "HybridSet standard_new_set k_subsets subset_count qbinom_via_subsets",
        "qseries": "Direction NormalSeries PowerSeriesInX series_mul power_xy "
        "pochhammer_expansion verify_chu_vandermonde freshman_congruence",
        "congruence": "PadicDigits padic_digits is_prime lucas_product verify_lucas "
        "q_lucas_rhs verify_q_lucas",
        "apery": "apery verify_apery_symmetry verify_apery_congruence",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def _public(module: str) -> list[str]:
    """The public names that `module` defines, in the order of _EXPORTS;
    each submodule's ``__all__``."""
    return [name for name, home in _EXPORTS.items() if home == module]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    try:
        return getattr(sys.modules[module], name)
    except (KeyError, AttributeError):  # not loaded yet, or still loading
        __import__(module)
        return getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(type(sys)):
    """The package module.  The import system binds each submodule onto its
    package when it first loads; the submodules `qbinom` and `apery` share
    their names with exported functions, which must stay the functions."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _EXPORTS and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
