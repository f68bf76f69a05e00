"""Property tests: the serial-pick engine behind seqpick, roundrobin and
the inverted-greed mutant against the rescanning reference in oracles.py,
and the rule's reading of a reported row only through its ranking, which
lets the deviation search run one report per distinct ranking.

Costs are drawn from 0..3 so that ties, which the index tie-break
settles, are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import allocate, build_schedule, roundrobin, seqpick
from choremms.model import CostMatrix, rankings, surrogate_matrix
from mutants import greedy_worst_seqpick
from oracles import rank_reference, serial_pick_reference

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
    # the same picks straight from negated costs, with the items mirrored
    # so that ties go to the lower index: most expensive first, ties by
    # ascending index
    m = matrix.m
    mirrored = CostMatrix(tuple(tuple(-c for c in reversed(row)) for row in matrix.costs))
    picks = serial_pick_reference(mirrored, schedule_sequence(matrix))
    assert alloc.bundles == tuple(frozenset(m - 1 - j for j in b) for b in picks)


def assert_one_ranking_one_bundle(matrix, algorithm, agent, row):
    """The agent's bundle when it reports `row`, and when it reports the
    distinct costs m, ..., 1 along the row's `rank` order, which
    serial_pick takes reversed, ties going to the higher index."""
    strict = [0.0] * matrix.m
    for pos, j in enumerate(rank_reference(row)):
        strict[j] = float(matrix.m - pos)
    bundles = [
        allocate(CostMatrix(matrix.costs[:agent] + (r,) + matrix.costs[agent + 1 :]), algorithm)
        .bundles[agent]
        for r in (tuple(row), tuple(strict))
    ]
    assert bundles[0] == bundles[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rows_of_one_ranking_give_one_bundle(data):
    """seqpick and roundrobin at n 1..5, m n+1..8, where the deviation
    search keys its cache by the reported row's ranking."""
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(n + 1, 8))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    matrix = CostMatrix.from_rows(data.draw(st.lists(row, min_size=n, max_size=n)))
    algorithm = data.draw(st.sampled_from(["seqpick", "roundrobin"]))
    agent = data.draw(st.integers(0, n - 1))
    assert_one_ranking_one_bundle(matrix, algorithm, agent, data.draw(row))


@pytest.mark.parametrize("algorithm", ["seqpick", "roundrobin"])
@pytest.mark.parametrize("agent", range(5))
def test_one_ranking_one_bundle_at_every_place_in_the_sequence(algorithm, agent):
    """n=5, m=6: seqpick's schedule (2, 2, 0, 0, 2) gives agents 3 and 4
    (indices 2, 3) no turn; agent 5 picks first and agent 1 last, in both
    sequences."""
    assert build_schedule(5, 6).counts[2:4] == (0, 0)
    rng = np.random.default_rng(agent)
    matrix = CostMatrix.from_rows(rng.integers(0, 4, (5, 6)).tolist())
    for row in rng.integers(0, 4, (40, 6)).tolist():
        assert_one_ranking_one_bundle(matrix, algorithm, agent, [float(c) for c in row])
