import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choremms.mms import (
    CAP,
    MmsCapError,
    _bracket,
    _kk_start,
    evaluate,
    mms_bounds,
    mms_exact,
    mms_table,
)
from choremms.model import Allocation, CostMatrix, row_problems
from oracles import lpt_reference, mms_bruteforce


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
    # the boundary at the constant cap of 20
    assert mms_exact((1.0,) * 20, 2).value == 10
    message = "21 items exceeds the exact-computation cap of 20; use mms_bounds"
    with pytest.raises(MmsCapError, match=f"^{message}$"):
        mms_exact((1.0,) * 21, 2)


NEGATIVE = "costs must be nonnegative"
NOT_FINITE = "costs must sum to a finite float"
AGENTS = "agent count must be >= 1"

# (solve, row, n, what is refused, the exact message); each case's id names
# what is refused
BAD_INPUT = [
    (mms_exact, (1.0, -1.0), 2, NEGATIVE, "negative cost at (1,2)"),
    (mms_exact, (1.0, 2.0), 0, AGENTS, AGENTS),
    (mms_bounds, (1.0, 2.0), 0, AGENTS, AGENTS),
    (mms_bounds, (1.0, -1.0), 2, NEGATIVE, "negative cost at (1,2)"),
    # the agent count first, then the row, then the cap
    (mms_bounds, (-1.0,), 0, AGENTS, AGENTS),
    (mms_exact, (-1.0,) * 21, 2, NEGATIVE, "negative cost at (1,1)"),
    # a NaN, an infinity or a sum past the float range, before the cap
    *(
        (solve, row, 2, NOT_FINITE, message)
        for solve in (mms_exact, mms_bounds)
        for row, message in (
            ((math.nan, 1.0, 2.0), "non-finite cost at (1,1)"),
            ((math.inf, 1.0), "non-finite cost at (1,1)"),
            ((1e308,) * 3 + (1.0,), "costs of row 1 sum past the float range"),
            ((math.nan,) * 21, "non-finite cost at (1,1)"),
        )
    ),
]


@pytest.mark.parametrize(
    "solve, row, n, message",
    [(solve, row, n, message) for solve, row, n, _, message in BAD_INPUT],
    ids=[
        f"{solve.__name__}-row{k}-{n}-{what}"
        for k, (solve, _, n, what, _) in enumerate(BAD_INPUT)
    ],
)
def test_bad_input_is_refused(solve, row, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(row, n)


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


def test_bounds_upper_is_lpt_where_kk_beats_it():
    # the search may start below LPT's load, from Karmarkar-Karp's value, but
    # the bracket mms_bounds returns keeps LPT's load
    rng = np.random.default_rng(29)
    beaten = 0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        row = tuple(rng.uniform(0, 1, int(rng.integers(2 * n + 2, 17))).tolist())
        items, lower, (upper, _) = _bracket(row, n)
        if upper <= lower or _kk_start([row[j] for j in items], n) >= upper:
            continue
        beaten += 1
        items = sorted(range(len(row)), key=lambda j: (-row[j], j))
        assert mms_bounds(row, n)[1] == lpt_reference(items, row, n)[0]
    assert beaten >= 50


def test_bounds_are_floats():
    for row in ((3, 1), (3.0, 1.0), (np.float64(1.0), 2), (np.int64(3), np.int64(1)), (0, 0)):
        for n in (1, 2, 3):
            assert [type(b) for b in mms_bounds(row, n)] == [float, float], (row, n)
    assert mms_bounds([3, 1], 2) == (3.0, 3.0)
    assert mms_bounds((np.float64(1.0), 2), 2) == (2.0, 2.0)


# entries of every kind a caller may pass: floats (NaN, infinities, -0.0,
# negatives, near the float maximum), ints past the float range, bools,
# None, strings and numpy scalars; rows of finite nonnegative entries,
# drawn on their own, are mostly valid
_ANY_COST = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e308, 1.7e308, -1e308]),
    st.integers(-10, 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(10**6), 10**6).map(np.int64),
)
_COST = st.one_of(
    st.floats(0.0, 1e308),
    st.integers(0, 10**6),
    st.just(-0.0),
    st.floats(0.0, 9.0).map(np.float64),
)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(_ANY_COST, max_size=25) | st.lists(_COST, max_size=25), n=st.integers(0, 4))
@example(row=[10**400, 1], n=2)
@example(row=[None, 1.0], n=2)
@example(row=["1", 1.0], n=2)
@example(row=[True, 2.0], n=2)
@example(row=[-1.0] * 21, n=2)
@example(row=[], n=3)
def test_the_row_rule_is_the_refusal(row, n):
    # an agent count below 1 first; then the row's first problem, as
    # `validate` words it for row 1, before the cap; a valid row is solved
    # or refused at the cap as before
    problems = row_problems(row)
    for solve in (mms_exact, mms_bounds):
        if n < 1 or problems:
            with pytest.raises(ValueError) as refused:
                solve(row, n)
            assert refused.type is ValueError
            assert str(refused.value) == ("agent count must be >= 1" if n < 1 else problems[0])
    if n < 1 or problems:
        return
    lower, upper = mms_bounds(row, n)
    assert type(lower) is type(upper) is float and lower <= upper
    if len(row) > CAP:
        with pytest.raises(MmsCapError):
            mms_exact(row, n)
    # longer rows can search for seconds; the search reads the row as
    # Python floats, so rows near the float maximum, whose n loads add up
    # past it, are solved too, with numpy scalars among them
    elif len(row) <= 12:
        value = mms_exact(row, n).value
        assert value <= upper and lower <= value * (1 + 1e-9)
        if not row:
            assert value == 0.0


def _solved(solve, row, n):
    """What `solve` gives for the row: the value `repr`, witness and method
    or both bounds' `repr`, or the refusal's type and message."""
    try:
        result = solve(row, n)
    except ValueError as refused:
        return type(refused), str(refused)
    if solve is mms_bounds:
        return tuple(map(repr, result))
    return repr(result.value), result.witness.bundles, result.method


_NUMPY_ELEMENTS = {
    np.float32: st.floats(0.0, float(np.finfo(np.float32).max), width=32),
    np.float64: st.floats(0.0, 1e308),
    np.int64: st.integers(0, 2**63 - 1),
}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(sorted(_NUMPY_ELEMENTS, key=str)),
    n=st.integers(1, 4),
)
def test_numpy_rows_are_solved_as_their_float_rows(data, dtype, n):
    # every step after the refusals reads the costs as Python floats: no
    # sum in the row's own type wraps, overflows or warns (filterwarnings
    # makes a warning an error)
    elements = st.sampled_from([0, 1, 2]) | _NUMPY_ELEMENTS[dtype]
    row = [dtype(v) for v in data.draw(st.lists(elements, max_size=10))]
    floats = [float(c) for c in row]
    for solve in (mms_exact, mms_bounds):
        assert _solved(solve, row, n) == _solved(solve, floats, n)


def test_numpy_rows_near_their_type_limits():
    # summed in their own type, the float32 row's share overflowed to inf
    # and the int64 row's total wrapped, which lowered its lower bound
    wide = [np.float32(3e38)] * 3
    assert math.isfinite(mms_exact(wide, 2).value)
    assert mms_exact(wide, 2).value == 2 * float(np.float32(3e38))
    assert mms_bounds([np.int64(2**62)] * 3, 2) == (3 * 2.0**61, 2.0**63)


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
    assert table == [3.0, 3.0]
    assert all(type(share) is float for share in table)
