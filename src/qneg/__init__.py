"""Exact Gaussian (q-)binomial coefficients for all integer arguments.

Every coefficient is an integer Laurent polynomial in q, computed exactly.
The package provides three independent evaluation routes (closed forms, the
q-Pascal recursion, and subset enumeration over hybrid sets), expansions in
q-commuting variables, Lucas congruences modulo primes and their q-analogs
modulo cyclotomic polynomials, and the Apery-number application.
"""

from .apery import apery, verify_apery_congruence, verify_apery_symmetry
from .congruence import (
    DigitSplit,
    PadicDigits,
    digit_split,
    is_prime,
    lucas_product,
    padic_digits,
    q_lucas_rhs,
    verify_lucas,
    verify_q_lucas,
)
from .hybridset import (
    HybridSet,
    k_subsets,
    qbinom_via_subsets,
    standard_new_set,
    subset_count,
)
from .laurent import (
    ONE,
    Q,
    ZERO,
    CyclotomicModulus,
    InvariantError,
    LaurentPoly,
    congruent_mod,
    cyclotomic,
    cyclotomic_poly,
    divides,
)
from .qbinom import (
    Region,
    binom,
    degree_profile,
    qbinom,
    qbinom_pascal,
    region,
    sgn,
    six_forms,
)
from .qseries import (
    Direction,
    NormalSeries,
    PowerSeriesInX,
    freshman_congruence,
    pochhammer_expansion,
    power_xy,
    series_mul,
    verify_chu_vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantError",
    "LaurentPoly",
    "CyclotomicModulus",
    "ZERO",
    "ONE",
    "Q",
    "cyclotomic",
    "cyclotomic_poly",
    "divides",
    "congruent_mod",
    "Region",
    "sgn",
    "region",
    "qbinom",
    "qbinom_pascal",
    "binom",
    "six_forms",
    "degree_profile",
    "HybridSet",
    "standard_new_set",
    "k_subsets",
    "subset_count",
    "qbinom_via_subsets",
    "Direction",
    "NormalSeries",
    "PowerSeriesInX",
    "series_mul",
    "power_xy",
    "pochhammer_expansion",
    "verify_chu_vandermonde",
    "freshman_congruence",
    "DigitSplit",
    "PadicDigits",
    "digit_split",
    "padic_digits",
    "is_prime",
    "lucas_product",
    "verify_lucas",
    "q_lucas_rhs",
    "verify_q_lucas",
    "apery",
    "verify_apery_symmetry",
    "verify_apery_congruence",
    "__version__",
]
