"""Tracing leaves qneg as it found it and accounts spans correctly."""

from pathlib import Path

import pytest

import qneg
import qneg.cli
from qbench import tracer, worker
from qneg.laurent import LaurentPoly

ROOT = Path(__file__).resolve().parents[2]


def snapshot():
    state = {(mod.__name__, attr): value for mod in tracer.qneg_modules() for attr, value in vars(mod).items()}
    for slots in tracer.OPERATORS.values():
        for slot in slots:
            state[("LaurentPoly", slot)] = LaurentPoly.__dict__[slot]
    return state


def test_traced_run_leaves_no_wrapper_behind():
    before = snapshot()
    # With no time to fill, the run stops at the first even cycle after
    # MIN_OPS ops: four cycles of 40 ops, two of them traced.
    result = worker.run_phase(ROOT, "verify-deep", 1, 0, traced=True)
    assert result["failed"] == 0 and result["ops"] == 160 and result["traced_ops"] == 80
    totals = result["trace"]
    assert totals["laurent.mul.calls"] > 0 and totals["laurent.divides.calls"] > 0
    assert totals["congruence.verify_q_lucas.calls"] == 48
    after = snapshot()
    assert after == before
    assert not any(tracer.is_wrapper(v) for v in after.values())
    assert qneg.qbinom.cache_info().currsize > 0
    assert qneg.qbinom is qneg.cli.qbinom


def test_nested_spans_and_errors_are_counted():
    qneg.qbinom.cache_clear()
    with tracer.Tracer() as t:
        assert qneg.qbinom(-5, 3) == qneg.qbinom_pascal(-5, 3)
        with pytest.raises(ValueError):
            qneg.cyclotomic_poly(0)
    assert not tracer.is_wrapper(qneg.qbinom)
    assert t.calls["qbinom.qbinom"] == 2  # the negative-n call reflects into a classical one
    assert t.errors["laurent"] == 1
    totals = t.totals()
    assert all(totals[f"{name}.self_s"] >= 0 for name in tracer.SPANS)
    assert totals["qbinom.qbinom.out_coeffs"] == 2 * len(qneg.qbinom(-5, 3).coeffs)
    # The reflection multiplies by a sign: a scalar product, so it adds no
    # polynomial product, coefficient work or large call.
    assert totals["laurent.mul.calls"] == 1 and totals["laurent.mul.poly_calls"] == 0
    assert totals["laurent.mul.coeff_products"] == 0 and totals["laurent.mul.large_calls"] == 0
    assert qneg.qbinom.cache_info().misses == 2
