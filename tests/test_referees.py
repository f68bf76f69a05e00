"""Property tests: the deviation checkers, randdecl and rank against the
references in oracles.py, and randdecl's closed form against enumeration.

randdecl must match the earlier, unhoisted randdecl draw for draw, its
dealing core must place every trial as a per-trial scan of the same draws
does, its Monte-Carlo estimate must match a reference that takes the same
draws and deals them with its own code, and sp_check_ordinal, which shares
every row but the deviating agent's between misreports, must report exactly
what a search that rebuilds every reported matrix reports. Costs are drawn
from 0..3 so that ties are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import (
    label_count,
    label_sets,
    randdecl,
    randdecl_deal,
    randdecl_expected_cost,
)
from choremms.model import CostMatrix, Model, rank
from choremms.verify import (
    MC_BLOCK,
    algorithm_runner,
    enum_expected_cost,
    mc_expected_cost,
    sp_check_ordinal,
)
from mutants import greedy_worst_seqpick
from oracles import (
    deviation_search_reference,
    mc_expected_cost_reference,
    randdecl_reference,
    rank_reference,
)


@st.composite
def instances(draw, n_range, m_range):
    n = draw(st.integers(*n_range))
    m = draw(st.integers(*m_range))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    return CostMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def label_profiles(draw, matrix):
    """An agent and a label set of the canonical size for it, or no
    override (None) for the truthful profile."""
    agent = draw(st.integers(0, matrix.n - 1))
    k = label_count(matrix.n, matrix.m)
    items = st.lists(st.integers(0, matrix.m - 1), min_size=k, max_size=k, unique=True)
    declared = draw(st.none() | items.map(frozenset))
    return agent, declared


def profile(matrix, agent, declared):
    """The truthful label profile, with `agent` declaring `declared` if given."""
    labels = list(label_sets(matrix))
    if declared is not None:
        labels[agent] = declared
    return labels


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_randdecl_matches_reference(data, seed):
    matrix = data.draw(instances((2, 5), (1, 12)))
    agent, declared = data.draw(label_profiles(matrix))
    override = None if declared is None else (agent, declared)
    if declared is None:
        alloc = randdecl(matrix, seed)
    else:
        alloc = randdecl(matrix, seed, labels=profile(matrix, agent, declared))
    expected = randdecl_reference(matrix, seed, override)
    assert alloc == expected
    # the same items added in the same order: iteration order agrees too
    assert [list(b) for b in alloc.bundles] == [list(b) for b in expected.bundles]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mc_expected_cost_matches_reference(data, seed):
    matrix = data.draw(instances((2, 4), (2, 8)))
    agent, declared = data.draw(label_profiles(matrix))
    trials = 300
    override = None if declared is None else (agent, declared)
    expected = mc_expected_cost_reference(matrix, agent, seed, trials, override)
    labels = profile(matrix, agent, declared)
    assert mc_expected_cost(matrix, agent, labels, trials=trials, seed=seed) == expected


@pytest.mark.parametrize("n, m", [(2, 300), (257, 260)])
def test_mc_expected_cost_matches_reference_past_255(n, m):
    # item and agent indices past one byte: the draws' dtype must hold them
    rng = np.random.default_rng(n * m)
    matrix = CostMatrix.from_rows(rng.integers(0, 4, size=(n, m)).tolist())
    agent = n - 1
    expected = mc_expected_cost_reference(matrix, agent, 7, 40)
    assert mc_expected_cost(matrix, agent, trials=40, seed=7) == expected


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 260),
    m=st.integers(1, 300),
    trials=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_randdecl_deal_matches_a_scan_per_trial(n, m, trials, density, seed):
    # the estimator's draw dtypes, past one byte for agents and items alike
    rng = np.random.default_rng(seed)
    labels = rng.random((n, m)) < density
    landings = rng.integers(0, n, size=(trials, m), dtype=np.min_scalar_type(n - 1))
    items = np.arange(m, dtype=np.min_scalar_type(m - 1))
    orders = rng.permuted(np.tile(items, (trials, 1)), axis=1)
    starts = rng.integers(0, n, size=trials)
    owner = randdecl_deal(labels, landings, orders, starts)
    assert owner.shape == (trials, m)
    for t in range(trials):
        landing = landings[t].tolist()
        expected = list(landing)
        pooled = [j for j in orders[t].tolist() if labels[landing[j], j]]
        for k, j in enumerate(pooled):
            expected[j] = (int(starts[t]) + k) % n
        assert owner[t].tolist() == expected


@pytest.mark.parametrize("trials", [1, 2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, MC_BLOCK + 2])
def test_mc_expected_cost_matches_reference_at_block_edges(trials):
    # trial 0 is randdecl; the rest fill one block exactly at MC_BLOCK + 1.
    # Item 0 absorbs each small cost added after it, but not their sum: a
    # trial cost added up in another order than the reference's is larger,
    # and the mean moves with it.
    rng = np.random.default_rng(trials)
    rows = rng.random((3, 11)).tolist()
    rows[2] = [1.0] + [6e-17] * 10
    matrix = CostMatrix.from_rows(rows)
    expected = mc_expected_cost_reference(matrix, 2, 5, trials)
    assert mc_expected_cost(matrix, 2, trials=trials, seed=5) == expected


costs = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, 0.5]) | st.floats(
    0.0, 1e300, allow_subnormal=True
)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(costs, min_size=1, max_size=12))
def test_rank_matches_reference(row):
    # ties, zeros of either sign and subnormals order as on the explicit key
    assert list(rank(CostMatrix.from_rows([row]), 0)) == rank_reference(row)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_matches_enumeration_when_many_misreport(data):
    # any number of agents declare any sets of the canonical size
    matrix = data.draw(instances((2, 3), (1, 7)))
    k = label_count(matrix.n, matrix.m)
    labels = list(label_sets(matrix))
    for i in range(matrix.n):
        if data.draw(st.booleans()):
            items = st.lists(st.integers(0, matrix.m - 1), min_size=k, max_size=k, unique=True)
            labels[i] = frozenset(data.draw(items))
    agent = data.draw(st.integers(0, matrix.n - 1))
    closed = randdecl_expected_cost(matrix, agent, labels)
    assert abs(closed - enum_expected_cost(matrix, agent, labels)) <= 1e-9


RUNNERS = {
    "seqpick": algorithm_runner("seqpick"),
    "roundrobin": algorithm_runner("roundrobin"),
    "dc3": algorithm_runner("dc3"),
    # its misreports pay, so a found deviation's description is compared too
    "greedy_worst_seqpick": greedy_worst_seqpick,
}


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(list(Model)),
    include_grid=st.booleans(),
)
def test_sp_check_ordinal_matches_reference(data, model, include_grid):
    matrix = data.draw(instances((2, 3), (3, 5)))
    names = ["seqpick", "roundrobin"] + ["dc3"] * (matrix.n == 3)
    if matrix.m > matrix.n:  # the mutant builds a schedule, which needs m > n
        names.append("greedy_worst_seqpick")
    algorithm = RUNNERS[data.draw(st.sampled_from(names))]
    agent = data.draw(st.integers(0, matrix.n - 1))
    report = sp_check_ordinal(algorithm, matrix, agent, model=model, include_grid=include_grid)
    assert (
        report.truthful_cost,
        report.best_deviation_cost,
        report.deviation,
        report.profitable,
    ) == deviation_search_reference(algorithm, matrix, agent, model, include_grid)
