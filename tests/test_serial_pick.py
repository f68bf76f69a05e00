"""Property tests: the serial-pick engine behind seqpick, roundrobin and
the inverted-greed mutant against the rescanning reference in oracles.py,
and its block form against one run per rebuilt matrix.

Costs are drawn from 0..3 so that ties, which the index tie-break
settles, are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import (
    allocate,
    build_schedule,
    pick_sequence,
    roundrobin,
    seqpick,
    serial_pick,
)
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


def per_row(matrix, algorithm, agent, rows):
    """The agent's bundle under each row, from one `allocate` per rebuilt
    matrix."""
    bundles = []
    for row in rows:
        reported = matrix.costs[:agent] + (row,) + matrix.costs[agent + 1 :]
        bundles.append(allocate(CostMatrix(reported), algorithm).bundles[agent])
    return bundles


def assert_block_matches_per_row(matrix, algorithm, agent, rows):
    sequence = pick_sequence(algorithm, matrix.n, matrix.m)
    block = serial_pick(matrix, sequence, (agent, rows))
    expected = per_row(matrix, algorithm, agent, rows)
    assert block == expected
    # the same frozensets, built in the same pick order, iterate alike, so
    # a deviation cost adds the same floats in the same order
    assert [list(b) for b in block] == [list(b) for b in expected]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_form_matches_one_run_per_rebuilt_matrix(data):
    """seqpick and roundrobin at n 1..5, m n+1..8, where the deviation
    search runs them on the block form."""
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(n + 1, 8))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    matrix = CostMatrix.from_rows(data.draw(st.lists(row, min_size=n, max_size=n)))
    algorithm = data.draw(st.sampled_from(["seqpick", "roundrobin"]))
    agent = data.draw(st.integers(0, n - 1))
    rows = data.draw(st.lists(row.map(lambda r: tuple(map(float, r))), min_size=1, max_size=6))
    assert_block_matches_per_row(matrix, algorithm, agent, rows)


@pytest.mark.parametrize("algorithm", ["seqpick", "roundrobin"])
@pytest.mark.parametrize("agent", range(5))
def test_block_form_for_every_place_in_the_sequence(algorithm, agent):
    """n=5, m=6: seqpick's schedule (2, 2, 0, 0, 2) gives agents 3 and 4
    (indices 2, 3) no turn; agent 5 picks first and agent 1 last, in both
    sequences."""
    assert build_schedule(5, 6).counts[2:4] == (0, 0)
    rng = np.random.default_rng(agent)
    matrix = CostMatrix.from_rows(rng.integers(0, 4, (5, 6)).tolist())
    rows = [tuple(row) for row in (rng.integers(0, 4, (40, 6)) * 1.0).tolist()]
    assert_block_matches_per_row(matrix, algorithm, agent, rows)
