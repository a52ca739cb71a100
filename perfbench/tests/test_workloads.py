"""Op streams are seeded, stay inside their documented sizes, and keep the
properties each workload was chosen for."""

import itertools
from collections import Counter

import pytest

from qbench import reference, workloads


def take(workload, seed, n_cycles):
    return [op for cycle in itertools.islice(workloads.cycles(workload, seed), n_cycles) for op in cycle]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    assert take(workload, 7, 3) == take(workload, 7, 3)
    assert take(workload, 7, 3) != take(workload, 8, 3)


def test_eval_large_never_repeats_a_reduced_pair():
    ops = take("eval-large", 3, 20)
    kinds = Counter(op[0] for op in ops)
    assert kinds["qbinom"] == 36 * 20 and kinds["apery"] == 6 * 20
    reduced = []
    for op in ops:
        if op[0] == "apery":
            assert 300 <= op[1] < 1500
            continue
        _, _, big, small = reference.reduce(op[1], op[2])
        small = min(small, big - small)
        assert 60 <= big < 300 and big // 4 <= small <= big // 2
        reduced.append((big, small))
    assert len(set(reduced)) == len(reduced)
    regions = Counter(reference.region(op[1], op[2]) for op in ops if op[0] == "qbinom")
    assert regions == {reg: 12 * 20 for reg in workloads.NONZERO}
    assert len({op[1] for op in ops if op[0] == "apery"}) == 6 * 20


def test_verify_deep_stays_in_its_boxes():
    ops = take("verify-deep", 5, 12)
    kinds = Counter(op[0] for op in ops)
    assert kinds == {"qlucas": 24 * 12, "negctl": 2 * 12, "chu": 6 * 12, "oracle": 6 * 12, "freshman": 2 * 12}
    for op in ops:
        kind, args = op[0], op[1:]
        if kind in ("qlucas", "negctl"):
            n, k, m = args[:3]
            assert abs(n) <= 200 and abs(k) <= 200 and 2 <= m <= 64
            assert reference.region(n, k) != "vanishing"
        elif kind == "chu":
            n, m, k = args
            assert abs(n) <= 40 and abs(m) <= 40 and 0 <= k <= 20
        elif kind == "oracle":
            assert 0 < abs(reference.binom(*args)) <= 5000
        else:
            assert 2 <= args[0] <= 30
    qlucas = [op for op in ops if op[0] == "qlucas"]
    for group in range(0, len(qlucas), 4):
        assert len({op[1:3] for op in qlucas[group:group + 4]}) == 1


def test_sweep_cli_runs_every_suite_and_two_tables_per_round():
    ops = take("sweep-cli", 2, 2)
    argvs = [op[1] for op in ops]
    assert [a[1] for a in argvs if a[0] == "verify"] == list(reference.VERIFY_LINES) * 2
    tables = [a for a in argvs if a[0] == "table"]
    assert [a[-1] for a in tables] == ["text", "json"] * 2
    assert all(len(workloads.pairs(("cli", a))) == 121 for a in tables)


def test_paired_stream_repeats_each_stratum_with_fresh_values():
    paired = list(itertools.islice(workloads.cycles("verify-deep", 4, paired=True), 6))

    def chu_bins(cycle):
        return [((abs(n) - 1) // 10, n > 0) for kind, n, *_ in cycle if kind == "chu"]

    for first, second in zip(paired[::2], paired[1::2]):
        assert chu_bins(first) == chu_bins(second) and first != second
    assert chu_bins(paired[0]) != chu_bins(paired[2])
