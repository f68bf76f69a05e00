"""Property tests: the serial-pick engine behind seqpick, roundrobin and
the inverted-greed mutant against the rescanning reference in oracles.py.

Costs are drawn from 0..3 so that ties, which the index tie-break
settles, are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import build_schedule, roundrobin, seqpick
from choremms.model import CostMatrix, rankings, surrogate_matrix
from mutants import greedy_worst_seqpick
from oracles import serial_pick_reference

EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def instances(draw, min_extra_items=1):
    """An n x m matrix of costs in 0..3 with m >= n + min_extra_items."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(1, n + min_extra_items), 39))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return CostMatrix.from_rows(rows)


def schedule_sequence(matrix):
    counts = build_schedule(matrix.n, matrix.m).counts
    return [i for i in reversed(range(matrix.n)) for _ in range(counts[i])]


@EXAMPLES
@given(instances())
def test_seqpick_matches_reference(matrix):
    schedule = build_schedule(matrix.n, matrix.m)
    alloc = seqpick(matrix)
    assert alloc.check_partition(matrix.m) == []
    assert alloc.bundles == serial_pick_reference(matrix, schedule_sequence(matrix))
    assert tuple(len(b) for b in alloc.bundles) == schedule.counts


@EXAMPLES
@given(instances(min_extra_items=-5), st.data())
def test_roundrobin_matches_reference_for_any_order(matrix, data):
    n, m = matrix.n, matrix.m
    order = data.draw(st.permutations(range(n)))
    alloc = roundrobin(matrix, agent_order=order)
    assert alloc.check_partition(m) == []
    assert alloc.bundles == serial_pick_reference(matrix, [order[t % n] for t in range(m)])


@EXAMPLES
@given(instances())
def test_greedy_worst_seqpick_takes_most_expensive_first(matrix):
    alloc = greedy_worst_seqpick(matrix)
    surrogate = surrogate_matrix([order[::-1] for order in rankings(matrix)])
    assert alloc.bundles == serial_pick_reference(surrogate, schedule_sequence(matrix))
    # the same picks straight from negated costs: most expensive first,
    # ties by ascending index
    negated = CostMatrix(tuple(tuple(-c for c in row) for row in matrix.costs))
    assert alloc.bundles == serial_pick_reference(negated, schedule_sequence(matrix))
