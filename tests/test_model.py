import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choremms.model import (
    Allocation,
    CostMatrix,
    Model,
    load_instance,
    parse_instance,
    rank,
    rankings,
    ratio_of,
    row_problems,
    surrogate_matrix,
    validate,
)
from oracles import ODD_COST_ENTRIES, row_problems_reference


def test_validate_accepts_well_formed_grid():
    assert validate([[3, 1, 1, 1], [3, 1, 1, 1]]) == []


def test_validate_flags_negative_cost():
    problems = validate([[3, -1, 1, 1], [3, 1, 1, 1]])
    assert any("negative cost at (1,2)" in p for p in problems)


def test_validate_flags_ragged_grid():
    problems = validate([[1, 2, 3, 4], [1, 2, 3]])
    assert any("dimension mismatch" in p for p in problems)


def test_validate_flags_empty():
    assert validate([]) != []
    assert validate([[]]) != []


def test_validate_flags_non_finite_cost():
    problems = validate([[1, float("inf")], [float("nan"), 1]])
    assert "non-finite cost at (1,2)" in problems
    assert "non-finite cost at (2,1)" in problems
    assert validate([[1, float("-inf")]]) == ["negative cost at (1,2)"]


def test_validate_flags_costs_past_the_float_range():
    # every entry is finite, but the row sums to inf as floats
    message = ["costs of row 1 sum past the float range"]
    assert validate([[1e308, 1e308], [1, 1]]) == message
    assert validate([[10**308, 10**308], [1, 1]]) == message
    assert validate([[10**308, 1e308], [1, 1]]) == message
    # numpy numbers are summed as floats: no overflow warning, and float32
    # entries are not held to the float32 range
    assert validate([np.full(2, 1e308), [1, 1]]) == message
    assert validate([np.full(2, 3e38, dtype=np.float32), [1, 1]]) == []
    # an int no float can hold is refused where it stands
    assert validate([[1, 1], [1, 10**400]]) == ["cost at (2,2) is too large for a float"]


_ENTRY = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e308]),
    st.integers(-10, 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=1, max_size=4)
    )
)
def test_validate_is_row_problems_row_by_row(rows):
    assert validate(rows) == [p for i, row in enumerate(rows) for p in row_problems(row, i)]


@st.composite
def cost_rows(draw):
    """Rows of up to 300 floats, ints or both, some holding -0.0 or finite
    entries that sum past the float range, with up to two entries at any
    index replaced by one of ODD_COST_ENTRIES."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["float", "int", "mixed", "overflow"]))
    if kind == "overflow":
        row = [rnd.choice([1e308, 10**308, rnd.uniform(1e307, 1.7e308)]) for _ in range(m)]
    else:
        top = rnd.choice([3, 1e6, 1e300])
        row = [rnd.uniform(0, top) for _ in range(m)]
        if kind == "int":
            row = [int(c) for c in row]
        elif kind == "mixed":
            row = [int(c) if rnd.random() < 0.5 else c for c in row]
    if m and draw(st.booleans()):
        row[rnd.randrange(m)] = -0.0
    for _ in range(draw(st.integers(0, 2))):
        if m:
            row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(ODD_COST_ENTRIES))
    return row


@settings(max_examples=300, deadline=None)
@given(row=cost_rows(), i=st.integers(0, 63))
@example(row=[1e308, 1e308], i=0)
@example(row=[0.5, 10**308, 10**308], i=3)
@example(row=[-0.0, 0.0, 0], i=0)
@example(row=[10**400, -(10**400), 1.0], i=0)
@example(row=[], i=0)
def test_row_problems_matches_the_entry_by_entry_reference(row, i):
    assert row_problems(row, i) == row_problems_reference(row, i)


def test_validate_flags_boolean_cost():
    assert validate([[1, True], [False, 1]]) == [
        "non-numeric cost at (1,2)",
        "non-numeric cost at (2,1)",
    ]


def test_validate_accepts_numpy_numbers():
    grid = np.array([[3, 1, 1, 1], [2, 2, 1, 0]])
    assert validate(grid) == []
    assert validate(grid.astype(np.float32)) == []
    assert validate([[np.int64(3), np.float64(1.5)], [np.uint8(2), 1]]) == []
    assert CostMatrix.from_rows(grid).costs[0] == (3.0, 1.0, 1.0, 1.0)
    assert validate([[np.int64(-1), np.float64("inf")]]) == [
        "negative cost at (1,1)",
        "non-finite cost at (1,2)",
    ]


def test_validate_flags_numpy_boolean_and_other_non_numbers():
    assert validate([[np.True_, 1], [np.False_, 1]]) == [
        "non-numeric cost at (1,1)",
        "non-numeric cost at (2,1)",
    ]
    assert validate([["3", None, 1j]]) == [
        "non-numeric cost at (1,1)",
        "non-numeric cost at (1,2)",
        "non-numeric cost at (1,3)",
    ]


def test_parse_instance_rejects_malformed_documents():
    with pytest.raises(ValueError, match="JSON object"):
        parse_instance([[1, 2], [3, 4]])
    for costs in (5, [1, 2], [[1, 2], 3], "12"):
        with pytest.raises(ValueError, match="list of rows"):
            parse_instance({"costs": costs})


def test_from_rows_rejects_invalid():
    with pytest.raises(ValueError, match="negative"):
        CostMatrix.from_rows([[1, -2]])


def test_degenerate_zero_row_is_allowed_but_flagged():
    m = CostMatrix.from_rows([[0, 0, 0], [1, 2, 3]])
    assert m.degenerate_agents() == [0]


def test_rank_strictly_increasing_row_reverses():
    m = CostMatrix.from_rows([[1, 2, 3, 4]])
    assert rank(m, 0) == (3, 2, 1, 0)


def test_rank_breaks_ties_by_ascending_index():
    m = CostMatrix.from_rows([[3, 1, 1, 1]])
    assert rank(m, 0) == (0, 1, 2, 3)


def test_rank_all_ties():
    m = CostMatrix.from_rows([[0, 0, 0, 0]])
    assert rank(m, 0) == (0, 1, 2, 3)


def test_rank_agent_out_of_range():
    m = CostMatrix.from_rows([[1, 2]])
    with pytest.raises(IndexError):
        rank(m, 1)


def test_rank_recovers_row_multiset():
    rng = np.random.default_rng(7)
    for _ in range(50):
        row = rng.uniform(0, 5, size=int(rng.integers(1, 10))).tolist()
        m = CostMatrix.from_rows([row])
        order = rank(m, 0)
        assert sorted(row[j] for j in order) == sorted(row)
        # descending along the ranking
        costs = [row[j] for j in order]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_rank_idempotent_on_sorted_row():
    m = CostMatrix.from_rows([[5, 4, 3, 2]])
    assert rank(m, 0) == (0, 1, 2, 3)


def test_surrogate_matrix_encodes_rankings_only():
    a = CostMatrix.from_rows([[1, 2, 3, 4], [10, 9, 2, 1]])
    b = CostMatrix.from_rows([[0.1, 5, 7, 9], [4, 3.5, 2, 0.5]])
    assert rankings(a) == rankings(b)
    assert surrogate_matrix(rankings(a)) == surrogate_matrix(rankings(b))


def test_allocation_partition_invariant():
    good = Allocation.from_lists([{0, 3}, {1, 2}])
    assert good.check_partition(4) == []
    assert Allocation.from_lists([{0}, {1, 2}]).check_partition(4) == ["items [3] unassigned"]
    assert Allocation.from_lists([{0, 1}, {1, 2, 3}]).check_partition(4) == [
        "items [1] assigned more than once"
    ]


def test_allocation_names_unknown_items():
    assert Allocation.from_lists([{0, 5}, {1}]).check_partition(2) == ["unknown items [5]"]


def test_ratio_conventions():
    assert ratio_of(2.0, 4.0) == 0.5
    assert ratio_of(0.0, 0.0) == 1.0
    assert ratio_of(1.0, 0.0) == float("inf")


def test_instance_roundtrip(tmp_path):
    doc = {"n": 2, "m": 4, "costs": [[3, 1, 1, 1], [3, 1, 1, 1]]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    m = load_instance(str(path))
    assert m.n == 2 and m.m == 4
    assert m.row(0) == (3.0, 1.0, 1.0, 1.0)


def test_parse_instance_checks_declared_sizes():
    with pytest.raises(ValueError, match='"n"'):
        parse_instance({"n": 3, "costs": [[1, 2], [3, 4]]})
    with pytest.raises(ValueError, match='"m"'):
        parse_instance({"m": 3, "costs": [[1, 2], [3, 4]]})


def test_model_variants():
    assert {m.value for m in Model} == {"cardinal", "ordinal", "public"}
