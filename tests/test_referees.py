"""Property tests: the deviation checkers and randdecl against the
references in oracles.py.

randdecl and its Monte-Carlo estimate must match the earlier, unhoisted
randdecl draw for draw, and sp_check_ordinal, which shares every row but
the deviating agent's between misreports, must report exactly what a search
that rebuilds every reported matrix reports. Costs are drawn from 0..3 so
that ties are common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from choremms.algorithms import declared_labels, label_count, randdecl
from choremms.model import CostMatrix, Model
from choremms.verify import algorithm_runner, mc_expected_cost, sp_check_ordinal
from mutants import greedy_worst_seqpick
from oracles import deviation_search_reference, randdecl_reference


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_randdecl_matches_reference(data, seed):
    matrix = data.draw(instances((2, 5), (1, 12)))
    agent, declared = data.draw(label_profiles(matrix))
    override = None if declared is None else (agent, declared)
    if declared is None:
        alloc = randdecl(matrix, seed)
    else:
        alloc = randdecl(matrix, seed, labels=declared_labels(matrix, agent, declared))
    expected = randdecl_reference(matrix, seed, override)
    assert alloc == expected
    # the same items added in the same order: iteration order agrees too
    assert [list(b) for b in alloc.bundles] == [list(b) for b in expected.bundles]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mc_expected_cost_matches_reference_trials(data, seed):
    matrix = data.draw(instances((2, 4), (2, 8)))
    agent, declared = data.draw(label_profiles(matrix))
    trials = 300
    override = None if declared is None else (agent, declared)
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    row = matrix.row(agent)
    bundles = [randdecl_reference(matrix, int(s), override).bundles[agent] for s in seeds]
    costs = np.array([sum(row[j] for j in bundle) for bundle in bundles])
    expected = (float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(trials)))
    assert mc_expected_cost(matrix, agent, declared, trials=trials, seed=seed) == expected


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
