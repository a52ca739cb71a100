"""Hybrid sets, subset enumeration, and the combinatorial q-binomial oracle."""

import math
import random

from qneg.hybridset import (
    HybridSet,
    _sigmas,
    k_subsets,
    qbinom_via_subsets,
    standard_new_set,
    subset_count,
)
from qneg.laurent import ONE, ZERO, LaurentPoly
from qneg.qbinom import Region, binom, qbinom, region

BOX = range(-7, 8)


def test_sigma_examples():
    assert HybridSet({-1: 2}).sigma() == -2
    assert HybridSet({-1: -2, -2: -1, -3: -1}).sigma() == 7
    assert HybridSet({}).sigma() == 0


def test_mixed_hybrid_set():
    # {1, 1, 4 | 2, 3, 3} holds 1, 2, 3, 4 with multiplicities 2, -1, -2, 1
    x = HybridSet.from_elements(positives=(1, 1, 4), negatives=(2, 3, 3))
    assert x.multiplicity(1) == 2
    assert x.multiplicity(2) == -1
    assert x.multiplicity(3) == -2
    assert x.multiplicity(4) == 1
    assert x.multiplicity(99) == 0
    assert x.element_count() == 0
    assert str(x) == "{4, 1, 1 | 3, 3, 2}"


def test_equality_and_hash_follow_the_multiplicities():
    # the rules of a dataclass(eq=True, unsafe_hash=True) on one field
    class SubSet(HybridSet):
        __slots__ = ()

    sets = [HybridSet({}), HybridSet({-1: 2}), HybridSet({-1: -2, -2: -1})]
    sets += list(k_subsets(-3, 2)) + list(k_subsets(4, 2))
    for a in sets:
        for b in sets:
            assert (a == b) is (a.multiplicities == b.multiplicities)
        assert hash(a) == hash((a.multiplicities,))
        assert a == HybridSet(dict(a.multiplicities))
        assert hash(a) == hash(HybridSet(dict(a.multiplicities)))
        assert a != a.multiplicities and a != SubSet(dict(a.multiplicities))
    assert len(set(k_subsets(-3, 2)) | set(k_subsets(-3, 2))) == subset_count(-3, 2)


def test_no_zero_multiplicities_stored():
    x = HybridSet({3: 0, 1: 2, 2: -1})
    assert x.support() == (2, 1)
    assert HybridSet.from_elements((5,), (5,)) == HybridSet({})


def test_rendering():
    assert str(HybridSet({-1: 2})) == "{-1, -1 | }"
    assert str(HybridSet({-1: -1, -2: -1, -3: -1})) == "{ | -1, -2, -3}"
    assert str(HybridSet({})) == "{ | }"
    assert repr(HybridSet({-1: 2})) == "HybridSet('{-1, -1 | }')"


def test_standard_new_set():
    assert standard_new_set(3) == HybridSet({0: 1, 1: 1, 2: 1})
    assert standard_new_set(0) == HybridSet({})
    assert standard_new_set(-3) == HybridSet({-1: -1, -2: -1, -3: -1})
    assert str(standard_new_set(-3)) == "{ | -1, -2, -3}"


def test_k_subsets_multiset_example():
    got = list(k_subsets(-3, 2))
    expected = [
        HybridSet({-1: 2}),
        HybridSet({-1: 1, -2: 1}),
        HybridSet({-1: 1, -3: 1}),
        HybridSet({-2: 2}),
        HybridSet({-2: 1, -3: 1}),
        HybridSet({-3: 2}),
    ]
    assert got == expected


def test_k_subsets_negative_example():
    got = list(k_subsets(-3, -4))
    expected = [
        HybridSet({-1: -2, -2: -1, -3: -1}),
        HybridSet({-1: -1, -2: -2, -3: -1}),
        HybridSet({-1: -1, -2: -1, -3: -2}),
    ]
    assert got == expected


def test_k_subsets_vanishing_region_is_empty():
    assert list(k_subsets(2, 5)) == []
    assert list(k_subsets(3, -1)) == []
    assert list(k_subsets(-3, -2)) == []


def test_subset_count_examples():
    assert subset_count(-3, 2) == 6
    assert subset_count(-3, -4) == 3
    assert subset_count(4, 2) == 6


def test_subset_count_closed_forms():
    # stars-and-bars oracles, fully independent of the library
    for n in BOX:
        for k in BOX:
            count = subset_count(n, k)
            if 0 <= k <= n:
                assert count == math.comb(n, k)
            elif n < 0 <= k:
                assert count == math.comb(-n + k - 1, k)
            elif k <= n < 0:
                assert count == math.comb(-k - 1, -n - 1)
            else:
                assert count == 0


def test_subset_count_equals_abs_binom():
    for n in BOX:
        for k in BOX:
            assert subset_count(n, k) == abs(binom(n, k))


def test_sigma_stream_is_the_subset_stream():
    # the oracle reads sigma from the combination streams; k_subsets and
    # HybridSet.sigma are the definitions it must reproduce, in order
    for n in range(-9, 10):
        for k in range(-9, 10):
            subsets = list(k_subsets(n, k))
            assert list(_sigmas(n, k)) == [y.sigma() for y in subsets], (n, k)
            assert subset_count(n, k) == len(subsets)


def test_oracle_equivalence_on_larger_shapes():
    # shapes as large as an identity sweep beyond the box draws: |n|, |k| <= 40
    # and at most 5,000 subsets, ten in each nonzero region
    rng = random.Random(20180207)
    shapes = {reg: [] for reg in (Region.CLASSICAL, Region.NEGATIVE_N, Region.DOUBLE_NEGATIVE)}
    while any(len(found) < 10 for found in shapes.values()):
        n, k = rng.randint(-40, 40), rng.randint(-40, 40)
        found = shapes.get(region(n, k))
        if found is None or len(found) == 10 or (n, k) in found:
            continue
        if 50 <= abs(binom(n, k)) <= 5000:
            found.append((n, k))
    for n, k in sum(shapes.values(), []):
        assert qbinom_via_subsets(n, k) == qbinom(n, k), (n, k)


def test_enumerated_subsets_are_well_formed():
    for n in BOX:
        for k in BOX:
            ground = set(standard_new_set(n).support())
            for y in k_subsets(n, k):
                assert y.element_count() == k
                assert set(y.support()) <= ground
                signs = {m > 0 for _, m in y.multiplicities}
                if region(n, k) is Region.DOUBLE_NEGATIVE:
                    assert signs <= {False}
                    assert set(y.support()) == ground
                else:
                    assert signs <= {True}


def test_qbinom_via_subsets_golden_values():
    assert qbinom_via_subsets(-3, 2) == LaurentPoly.from_terms(
        {-3: 1, -4: 1, -5: 2, -6: 1, -7: 1}
    )
    assert qbinom_via_subsets(-3, -4) == LaurentPoly.from_terms(
        {-3: -1, -2: -1, -1: -1}
    )
    for n in (-5, 0, 3):
        assert qbinom_via_subsets(n, 0) == ONE
    assert qbinom_via_subsets(4, -2) == ZERO


def test_oracle_equivalence_on_box():
    for n in BOX:
        for k in BOX:
            assert qbinom_via_subsets(n, k) == qbinom(n, k), (n, k)


def test_multiset_bijection_reflected_identity():
    # For n < 0 <= k, shifting every element by |n| turns the subsets of X_n
    # into k-multisets over {0..|n|-1}, and the raw weights q^sigma sum to
    # the reflected classical coefficient.
    for n in range(-7, 0):
        for k in range(0, 8):
            total = LaurentPoly.from_terms({})
            for y in k_subsets(n, k):
                shifted = sum(m * (e - n) for e, m in y.multiplicities)
                total = total + LaurentPoly.q_power(shifted)
            assert total == qbinom(k - n - 1, k)
