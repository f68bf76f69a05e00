import numpy as np
import pytest

from choremms.mms import (
    MmsCapError,
    evaluate,
    mms_bounds,
    mms_exact,
    mms_table,
)
from choremms.model import Allocation, CostMatrix
from oracles import mms_bruteforce


def test_known_values():
    assert mms_exact((3, 1, 1, 1), 2).value == 3
    assert mms_exact((1, 1, 1, 1), 2).value == 2
    assert mms_exact((1, 1, 1, 1, 1, 1), 2).value == 3
    assert mms_exact((5, 4, 3, 2, 1), 3).value == mms_bruteforce((5, 4, 3, 2, 1), 3) == 5


def test_single_agent_gets_everything():
    res = mms_exact((2.5, 0.5, 7.0), 1)
    assert res.value == 10.0
    assert res.witness.bundles == (frozenset({0, 1, 2}),)


def test_witness_is_optimal_partition():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 9))
        row = tuple(rng.uniform(0, 1, m))
        res = mms_exact(row, n)
        assert res.witness.check_partition(m) == []
        assert len(res.witness.bundles) == n
        worst = max(sum(row[j] for j in b) for b in res.witness.bundles)
        assert worst == pytest.approx(res.value, abs=1e-12)
        # bundles sorted by descending cost
        costs = [sum(row[j] for j in b) for b in res.witness.bundles]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            row = tuple(float(c) for c in rng.integers(0, 6, m))
        else:
            row = tuple(rng.uniform(0, 1, m))
        assert mms_exact(row, n).value == pytest.approx(
            mms_bruteforce(row, n), abs=1e-12
        )


def test_cap_refusal():
    with pytest.raises(MmsCapError, match="mms_bounds"):
        mms_exact(tuple(range(1, 23)), 2)
    # the cap is a knob
    assert mms_exact((1.0,) * 5, 2, cap=5).value == 3


def test_bounds_bracket_exact():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 10))
        row = tuple(rng.uniform(0, 2, m))
        lower, upper = mms_bounds(row, n)
        value = mms_exact(row, n).value
        assert lower <= value + 1e-12
        assert value <= upper + 1e-12


def test_bounds_known_cases():
    assert mms_bounds((3, 1, 1, 1), 2)[0] == 3
    assert mms_bounds((1, 1, 1, 1), 4) == (1.0, 1.0)
    assert mms_bounds((1, 1, 1, 1, 1, 1), 2)[0] == 3


def test_scaling_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        row = tuple(rng.uniform(0, 1, 7))
        lam = float(rng.uniform(0.1, 9))
        base = mms_exact(row, 3)
        scaled = mms_exact(tuple(lam * c for c in row), 3)
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
        # the unscaled witness stays optimal for the scaled row
        worst = max(sum(lam * row[j] for j in b) for b in base.witness.bundles)
        assert worst == pytest.approx(scaled.value, rel=1e-12)


def test_appending_an_item_never_decreases_value():
    rng = np.random.default_rng(17)
    for _ in range(30):
        row = tuple(rng.uniform(0, 1, int(rng.integers(1, 8))))
        extra = float(rng.uniform(0, 2))
        before = mms_exact(row, 3).value
        after = mms_exact(row + (extra,), 3).value
        assert after >= before - 1e-12


def test_all_zero_row():
    res = mms_exact((0.0, 0.0, 0.0), 2)
    assert res.value == 0.0
    assert res.witness.check_partition(3) == []


def certified(allocation, matrix, alpha):
    """Per-agent alpha certification: bundle cost <= alpha * MMS."""
    return [a.ratio <= alpha for a in evaluate(allocation, matrix).per_agent]


def test_certify_examples():
    matrix = CostMatrix.from_rows([[1, 1, 1, 1], [3, 1, 1, 1]])
    alloc = Allocation.from_lists([{0, 1}, {2, 3}])
    assert certified(alloc, matrix, 4 / 3) == [True, True]

    identical = CostMatrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    lopsided = Allocation.from_lists([{0}, {1, 2, 3}])
    assert certified(lopsided, identical, 4 / 3) == [True, False]


def test_certify_one_item_each():
    matrix = CostMatrix.from_rows([[2, 5, 1], [4, 4, 4], [9, 1, 3]])
    alloc = Allocation.from_lists([{0}, {1}, {2}])
    assert all(certified(alloc, matrix, 1.0))


def test_evaluate_report():
    matrix = CostMatrix.from_rows([[1, 1, 1, 1], [3, 1, 1, 1]])
    alloc = Allocation.from_lists([{0, 1}, {2, 3}])
    report = evaluate(alloc, matrix)
    assert report.per_agent[0].cost == 2
    assert report.per_agent[0].mms == 2
    assert report.per_agent[1].mms == 3
    assert report.max_ratio == pytest.approx(1.0)


def test_evaluate_rejects_non_partition():
    matrix = CostMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="partition"):
        evaluate(Allocation.from_lists([{0}, {0, 1}]), matrix)


def test_mms_table_covers_all_agents():
    matrix = CostMatrix.from_rows([[1, 2, 3], [3, 2, 1]])
    table = mms_table(matrix)
    assert [r.value for r in table] == [3, 3]
