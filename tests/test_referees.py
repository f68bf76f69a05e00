"""Property tests: the deviation checkers, randdecl, rank and label_sets
against the references in oracles.py, and randdecl's closed form against
enumeration.

randdecl must match the earlier, unhoisted randdecl draw for draw, its
dealing core must place every trial as a per-trial scan of the same
draws does, its Monte-Carlo estimate must match a reference that takes
the same draws and deals them with its own code, and sp_check_ordinal,
which shares every row but the deviating agent's between misreports and
enumerates grid misreports in blocks, must report exactly what a search
that rebuilds every reported matrix reports; the pick tree's cheapest
leaf, which settles a passing serial-pick check before any misreport
runs and stops a failing one's search, must be the ordinal search's best
cost; a grid is refused exactly when one of its rows is an invalid
report. The exact randdecl expectation, which enumerates landings in
blocks, must equal a loop over the landings bit for bit, and the closed
form, which counts each item's declarations once, its first form, which
tests membership per agent. Costs are drawn from 0..3 so that ties are
common. The rows a monotonicity check runs must reach the rankings a
dense sweep of values reaches, move by move.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choremms import verify
from choremms.algorithms import (
    label_count,
    label_sets,
    pick_sequence,
    pick_tree,
    randdecl,
    randdecl_deal,
    randdecl_expected_cost,
)
from choremms.model import CostMatrix, Model, rank, rankings, surrogate_matrix, validate
from choremms.verify import (
    BLOCK,
    algorithm_runner,
    enum_expected_cost,
    mc_expected_cost,
    monotonicity_check,
    sp_check_ordinal,
)
from mutants import argmin_assigner, greedy_worst_seqpick, inverted_gather
from oracles import (
    deviation_search_reference,
    enum_expected_cost_reference,
    label_sets_reference,
    mc_expected_cost_reference,
    move_rankings_reference,
    moved_rankings,
    randdecl_expected_cost_reference,
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
    last_start=st.booleans(),
)
# one trial at 64x4096, the allocate benchmark's largest size, with about
# the truthful profile's share of declared items
@example(n=64, m=4096, trials=1, density=0.04, seed=2019, last_start=False)
# every item pooled, each trial dealt from agent n - 1: the last pooled
# item's place reads the last entry of the deal's table of agents
@example(n=3, m=7, trials=3, density=1.0, seed=7, last_start=True)
@example(n=2, m=300, trials=2, density=1.0, seed=7, last_start=True)
# no items: nothing to deal
@example(n=2, m=0, trials=2, density=1.0, seed=7, last_start=False)
def test_randdecl_deal_matches_a_scan_per_trial(n, m, trials, density, seed, last_start):
    # the estimator's draw dtypes, past one byte for agents and items alike
    rng = np.random.default_rng(seed)
    labels = rng.random((n, m)) < density
    landings = rng.integers(0, n, size=(trials, m), dtype=np.min_scalar_type(n - 1))
    items = np.arange(m, dtype=np.min_scalar_type(m - 1))
    orders = rng.permuted(np.tile(items, (trials, 1)), axis=1)
    starts = rng.integers(0, n, size=trials)
    if last_start:
        starts[:] = n - 1
    owner = randdecl_deal(labels, landings, orders, starts)
    assert owner.shape == (trials, m)
    for t in range(trials):
        landing = landings[t].tolist()
        expected = list(landing)
        pooled = [j for j in orders[t].tolist() if labels[landing[j], j]]
        for k, j in enumerate(pooled):
            expected[j] = (int(starts[t]) + k) % n
        assert owner[t].tolist() == expected


@pytest.mark.parametrize("trials", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2])
def test_mc_expected_cost_matches_reference_at_block_edges(trials):
    # trial 0 is randdecl; the rest fill one block exactly at BLOCK + 1.
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
def test_label_sets_match_reference(data):
    # each agent's top label_count items on the explicit key, ties included
    n = data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.lists(costs, min_size=m, max_size=m), min_size=n, max_size=n))
    matrix = CostMatrix.from_rows(rows)
    assert label_sets(matrix) == label_sets_reference(matrix)


GATHERS = {
    "default": lambda item, recipient, labels: item in labels[recipient],
    "inverted": inverted_gather,
}
# near-limit costs whose total over the landings overflows to inf
enum_costs = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 3.0, 0.1, 6e-17, 1e308]) | st.floats(
    0.0, 1e300, allow_subnormal=True
)


def enum_cost(matrix, agent, labels, gather):
    # the default rule is enum_expected_cost's own default argument
    if gather == "default":
        return enum_expected_cost(matrix, agent, labels)
    return enum_expected_cost(matrix, agent, labels, gather=GATHERS[gather])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gather=st.sampled_from(sorted(GATHERS)))
def test_enum_expected_cost_matches_reference(data, gather):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 7))
    rows = data.draw(
        st.lists(st.lists(enum_costs, min_size=m, max_size=m), min_size=n, max_size=n).filter(
            lambda rows: not validate(rows)
        )
    )
    matrix = CostMatrix.from_rows(rows)
    agent, declared = data.draw(label_profiles(matrix))
    labels = profile(matrix, agent, declared)
    expected = enum_expected_cost_reference(matrix, agent, labels, GATHERS[gather])
    assert enum_cost(matrix, agent, labels, gather) == expected


@pytest.mark.parametrize("gather", sorted(GATHERS))
@pytest.mark.parametrize("n, m", [(4, 5), (3, 7), (4, 6), (4, 7)])
def test_enum_expected_cost_matches_reference_at_block_edges(n, m, gather):
    # 4^5 landings fill one block exactly; the others take 3, 4 and 16
    # blocks. Item 0 (1e16 and up) absorbs each 1.0 added after it, but not
    # their sum, and the running total absorbs the low bits of each
    # landing's cost: another addition order, within a landing or across
    # them, moves the value.
    rows = [[1e16 * (i + 1)] + [1.0] * (m - 1) for i in range(n)]
    rows[-1] = [0.1 * (j + 1) for j in range(m)]
    matrix = CostMatrix.from_rows(rows)
    assert n**m >= BLOCK
    labels = label_sets(matrix)
    for agent in range(n):
        expected = enum_expected_cost_reference(matrix, agent, labels, GATHERS[gather])
        assert enum_cost(matrix, agent, labels, gather) == expected


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


@st.composite
def closed_form_rows(draw, m):
    """A row of tied integers 0..3, of zeros, of tied integers times 1e300,
    or one whose first item absorbs each small cost added after it."""
    ints = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    kind = draw(st.sampled_from(["ints", "zeros", "1e300", "absorbing"]))
    if kind == "zeros":
        return [0.0] * m
    if kind == "1e300":
        return [c * 1e300 for c in ints]
    if kind == "absorbing":
        return [1.0] + [6e-17] * (m - 1)
    return ints


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_form_matches_reference(data):
    # every agent declares the truth or any set of the canonical size; the
    # declarations are counted once, and every float is the reference's
    n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 9))
    matrix = CostMatrix.from_rows([data.draw(closed_form_rows(m)) for _ in range(n)])
    k = label_count(n, m)
    items = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
    labels = tuple(
        data.draw(st.just(truthful) | items.map(frozenset)) for truthful in label_sets(matrix)
    )
    agent = data.draw(st.integers(0, n - 1))
    expected = randdecl_expected_cost_reference(matrix, agent, labels)
    assert randdecl_expected_cost(matrix, agent, labels) == expected


RUNNERS = {
    "seqpick": algorithm_runner("seqpick"),
    "roundrobin": algorithm_runner("roundrobin"),
    "dc3": algorithm_runner("dc3"),
    # their misreports pay, so a found deviation's description is compared
    # too: the first reads rankings alone, the second magnitudes, which
    # public-ranking grid rows still move
    "greedy_worst_seqpick": greedy_worst_seqpick,
    "argmin_assigner": argmin_assigner,
}


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(list(Model)),
    include_grid=st.booleans(),
)
def test_sp_check_ordinal_matches_reference(data, model, include_grid):
    matrix = data.draw(instances((2, 3), (1, 5)))
    names = ["seqpick", "roundrobin", "argmin_assigner", "greedy_worst_seqpick"]
    names += ["dc3"] * (matrix.n == 3)
    algorithm = RUNNERS[data.draw(st.sampled_from(names))]
    agent = data.draw(st.integers(0, matrix.n - 1))
    report = sp_check_ordinal(algorithm, matrix, agent, model=model, include_grid=include_grid)
    assert (
        report.truthful_cost,
        report.best_deviation_cost,
        report.deviation,
        report.profitable,
    ) == deviation_search_reference(algorithm, matrix, agent, model, include_grid)


# (runner, model, agent, rows, pinned deviation or None). m=6 enumerates
# 4^6 grid rows in 4 blocks, m=7 4^7 in 16. The pinned deviations are the
# first strictly cheaper rows, which lie past block 0: at rows 2050 and
# 2726, in block 2, and at row 10922, in block 10. Under a filter that
# also kept a tie against index order, the two public ones would name
# earlier rows, of another order.
GRID_BLOCK_CASES = [
    ("roundrobin", Model.PUBLIC_RANKING, 0, [[3, 3, 2, 2, 4, 4], [2, 1, 1, 2, 2, 2], [4, 2, 4, 1, 2, 1]], None),
    ("dc3", Model.PUBLIC_RANKING, 0, [[2, 4, 1, 2, 1, 2], [4, 1, 2, 2, 4, 1], [3, 2, 1, 4, 1, 2]], None),
    ("greedy_worst_seqpick", Model.PUBLIC_RANKING, 1, [[4, 4, 2, 1, 3, 3], [4, 2, 2, 1, 2, 3]], None),
    (
        "argmin_assigner",
        Model.PUBLIC_RANKING,
        2,
        [[3, 3, 1, 4, 3, 4], [2, 2, 4, 1, 1, 2], [3, 1, 4, 2, 1, 3]],
        "grid factors (2.0, 2.0, 2.0, 2.0, 1.0, 2.0)",
    ),
    ("roundrobin", Model.CARDINAL, 1, [[3, 3, 2, 2, 4, 4], [2, 1, 1, 2, 2, 2], [4, 2, 4, 1, 2, 1]], None),
    ("dc3", Model.CARDINAL, 2, [[2, 4, 1, 2, 1, 2], [4, 1, 2, 2, 4, 1], [3, 2, 1, 4, 1, 2]], None),
    (
        "greedy_worst_seqpick",
        Model.CARDINAL,
        2,
        [[4, 3, 3, 3, 3, 2], [1, 2, 3, 4, 4, 1], [1, 4, 3, 4, 4, 2]],
        "grid factors (2.0, 0.5, 0.5, 0.5, 0.5, 2.0)",
    ),
    ("roundrobin", Model.PUBLIC_RANKING, 0, [[4, 2, 4, 3, 3, 1, 4], [1, 4, 1, 4, 2, 4, 2]], None),
    (
        "dc3",
        Model.PUBLIC_RANKING,
        0,
        [
            [0.37, 0.83, 0.18, 0.64, 0.76, 0.27, 0.15],
            [0.35, 0.69, 0.61, 0.24, 0.49, 0.7, 0.48],
            [0.67, 0.97, 0.71, 0.45, 0.27, 0.41, 0.56],
        ],
        None,
    ),
    (
        "greedy_worst_seqpick",
        Model.PUBLIC_RANKING,
        1,
        [[2, 1, 4, 4, 4, 3, 4], [1, 1, 2, 1, 3, 1, 2], [3, 2, 3, 4, 4, 4, 4]],
        None,
    ),
    (
        "argmin_assigner",
        Model.PUBLIC_RANKING,
        1,
        [[4, 2, 1, 1, 3, 2, 2], [2, 1, 1, 2, 4, 1, 3]],
        "grid factors (2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0)",
    ),
    ("roundrobin", Model.CARDINAL, 0, [[4, 2, 4, 3, 3, 1, 4], [1, 4, 1, 4, 2, 4, 2]], None),
    ("dc3", Model.CARDINAL, 1, [[2, 1, 4, 4, 4, 3, 4], [1, 1, 2, 1, 3, 1, 2], [3, 2, 3, 4, 4, 4, 4]], None),
]


@pytest.mark.parametrize("name, model, agent, rows, pinned", GRID_BLOCK_CASES)
def test_sp_check_ordinal_matches_reference_across_grid_blocks(name, model, agent, rows, pinned):
    algorithm = RUNNERS[name]
    matrix = CostMatrix.from_rows(rows)
    report = sp_check_ordinal(algorithm, matrix, agent, model=model, include_grid=True)
    assert (
        report.truthful_cost,
        report.best_deviation_cost,
        report.deviation,
        report.profitable,
    ) == deviation_search_reference(algorithm, matrix, agent, model, True)
    if pinned is not None:
        assert report.deviation == pinned


@st.composite
def serial_pick_checks(draw, max_m):
    """A seqpick or roundrobin check on n = 2-3 agents and 1..max_m items,
    with costs 0..3, so that ties are common, or with distinct costs in
    [0, 1], so that a report can gain less than one."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    else:
        row = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m, unique=True)
    matrix = CostMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))
    name = draw(st.sampled_from(["seqpick", "roundrobin"]))
    return name, matrix, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(check=serial_pick_checks(max_m=6))
def test_pick_tree_least_cost_is_the_ordinal_search_best(check):
    # a strict ranking that puts a leaf's picks first reaches that leaf, so
    # under the ordinal model the tree's cheapest leaf is the best report
    name, matrix, agent = check
    true_row = matrix.costs[agent]
    sequence = pick_sequence(name, matrix.n, matrix.m)
    leaves = pick_tree(surrogate_matrix(rankings(matrix)), sequence, agent)
    least = min(sum(true_row[j] for j in leaf) for leaf in leaves)
    reference = deviation_search_reference(RUNNERS[name], matrix, agent, Model.ORDINAL, False)
    assert least == reference[1]


@settings(max_examples=100, deadline=None)
@given(
    check=serial_pick_checks(max_m=5),
    model=st.sampled_from(list(Model)),
    include_grid=st.booleans(),
)
def test_the_proof_hides_no_cheaper_report(check, model, include_grid):
    # a passing check settled by the pick tree reports "truthful" exactly
    # where the rebuilt-matrix search finds nothing cheaper
    name, matrix, agent = check
    report = sp_check_ordinal(RUNNERS[name], matrix, agent, model=model, include_grid=include_grid)
    assert (
        report.truthful_cost,
        report.best_deviation_cost,
        report.deviation,
        report.profitable,
    ) == deviation_search_reference(RUNNERS[name], matrix, agent, model, include_grid)


@pytest.fixture
def allocations(monkeypatch):
    """Every matrix `verify` allocates, in order."""
    run = []
    engine = verify.allocate

    def recording(mat, alg):
        run.append(mat)
        return engine(mat, alg)

    monkeypatch.setattr(verify, "allocate", recording)
    return run


@pytest.mark.parametrize(
    "rows, factors, runs",
    [
        # a negative factor makes a negative cost: the grid is refused
        # before the truthful report runs
        ([[3, 1, 2, 4], [1, 2, 3, 4]], (1.0, -1.0), 0),
        # factors 2 and 3 take 1e300 past 1e300, yet every grid row is a
        # valid report, so the pick tree settles the check on the truth
        ([[1e300, 1, 2, 4], [1, 2, 3, 4]], (0.5, 1.0, 2.0, 3.0), 1),
    ],
    ids=["negative factor", "past 1e300"],
)
def test_a_grid_is_refused_or_settled_before_any_misreport_runs(allocations, rows, factors, runs):
    matrix = CostMatrix.from_rows(rows)

    def check():
        runner = RUNNERS["seqpick"]
        return sp_check_ordinal(
            runner, matrix, 0, model=Model.CARDINAL, include_grid=True, grid_factors=factors
        )

    if runs:
        assert check().deviation == "truthful"
    else:
        with pytest.raises(ValueError, match="grid misreports leave the float range"):
            check()
    assert len(allocations) == runs


def test_a_grid_past_1e300_is_settled_by_the_leaves(allocations):
    # a seeded 3x7 instance of distinct costs scaled by 1e301, whose x3 grid
    # rows stay valid: each passing check runs the truthful report alone,
    # seqpick's settled by the pick tree, dc3's choosers by their offer
    rng = np.random.default_rng(2019)
    matrix = CostMatrix.from_rows((rng.uniform(0.0, 1.0, (3, 7)) * 1e301).tolist())
    for name, agents in (("seqpick", (0, 1, 2)), ("dc3", (1, 2))):
        for agent in agents:
            allocations.clear()
            report = sp_check_ordinal(
                RUNNERS[name], matrix, agent, model=Model.CARDINAL, include_grid=True
            )
            assert report.deviation == "truthful"
            assert len(allocations) == 1


@st.composite
def near_limit_grid_checks(draw):
    """A check on rows whose largest entries lie between 1e305 and 1.5e308
    (a valid instance at m <= 4), with one to four grid factors that may
    be 0, -1, inf or NaN."""
    name = draw(st.sampled_from(sorted(RUNNERS)))
    n = 3 if name == "dc3" else draw(st.integers(2, 3))
    m = draw(st.integers(1, 4))
    unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    scale = draw(st.floats(1e305, 1.5e308 / m))
    rows = draw(st.lists(st.lists(unit, min_size=m, max_size=m), min_size=n, max_size=n))
    matrix = CostMatrix.from_rows([[c * scale for c in row] for row in rows])
    special = st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan])
    factors = draw(st.lists(special | st.floats(0.0, 4.0), min_size=1, max_size=4))
    return name, matrix, draw(st.integers(0, n - 1)), tuple(factors)


@settings(max_examples=150, deadline=None)
@given(
    check=near_limit_grid_checks(),
    model=st.sampled_from([Model.CARDINAL, Model.PUBLIC_RANKING]),
)
def test_a_grid_is_refused_exactly_when_a_row_is_invalid(check, model):
    # the cardinal reference builds every grid row as a whole report, so it
    # refuses exactly when a row is invalid; the public one builds only the
    # rows that keep the ranking, so its refusal is one here too
    name, matrix, agent, factors = check
    algorithm = RUNNERS[name]
    try:
        expected = deviation_search_reference(algorithm, matrix, agent, model, True, factors)
    except ValueError:
        expected = None
    try:
        report = sp_check_ordinal(
            algorithm, matrix, agent, model=model, include_grid=True, grid_factors=factors
        )
    except ValueError as exc:
        assert "grid misreports leave the float range" in str(exc)
        assert expected is None or model is Model.PUBLIC_RANKING
        return
    assert (
        report.truthful_cost,
        report.best_deviation_cost,
        report.deviation,
        report.profitable,
    ) == expected


# entries whose gaps hold no float, or one whose midpoint rounds to an end,
# and the least subnormals, beside the small integers and uniform floats
MOVE_ENTRIES = (
    0.0,
    0.5,
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(1.0, 2.0),
    math.nextafter(2.0, 0.0),
    2.0,
    math.nextafter(2.0, 3.0),
    5e-324,
    1e-323,
)


@st.composite
def moved_rows(draw):
    """A row of one to six small tied integers, zeros and floats, and the
    items the agent holds."""
    entry = st.integers(0, 3).map(float) | st.sampled_from(MOVE_ENTRIES) | st.floats(0.0, 4.0)
    row = draw(st.lists(entry, min_size=1, max_size=6))
    return row, draw(st.sets(st.integers(0, len(row) - 1)))


@settings(max_examples=300, deadline=None)
@given(case=moved_rows(), preserving=st.booleans())
# a gap whose midpoint's row sums past the float range
@example(case=([1e308, 7e307, 1.0], set()), preserving=False)
@example(case=([1e308, 7e307, 1.0], set()), preserving=True)
def test_monotonicity_moves_reach_what_a_dense_sweep_reaches(case, preserving):
    # for each item, lowered when held and raised otherwise, the check's
    # rows reach exactly the rankings of the sweep's valid rows: those that
    # keep the ranking, and put the entry on no other value, when preserving
    row, held = case
    reached = moved_rankings(monotonicity_check, row, held, preserving)
    assert reached == move_rankings_reference(row, held, preserving)
