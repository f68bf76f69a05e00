import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from choremms import algorithms, verify
from choremms.algorithms import allocate, label_count, label_sets
from choremms.model import Allocation, CostMatrix, Model, rankings, row_problems
from choremms.verify import (
    algorithm_runner,
    enum_expected_cost,
    fixture_instances,
    mc_expected_cost,
    monotonicity_check,
    sp_check_ordinal,
    sp_check_randomized,
    witness_ordinal_det,
    witness_ordinal_rand,
)
from mutants import argmax_assigner, greedy_worst_seqpick, inverted_pool_expected_cost
from oracles import move_rankings_reference, moved_rankings, witness_ordinal_rand_grid


def uniform_instance(rng, n, m):
    return CostMatrix.from_rows(rng.uniform(0.01, 1.0, (n, m)).tolist())


# --- deterministic deviation search ----------------------------------------

def test_seqpick_ordinal_no_profitable_misreport():
    rng = np.random.default_rng(61)
    runner = algorithm_runner("seqpick")
    for _ in range(8):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, 7))
        inst = uniform_instance(rng, n, m)
        for agent in range(n):
            rep = sp_check_ordinal(runner, inst, agent, model=Model.ORDINAL)
            assert not rep.profitable, rep


def test_seqpick_mutant_is_manipulable():
    # an instance where picking your priciest items first obviously backfires
    inst = CostMatrix.from_rows([[9, 8, 1, 1], [1, 1, 8, 9]])
    flagged = any(
        sp_check_ordinal(greedy_worst_seqpick, inst, agent, model=Model.ORDINAL).profitable
        for agent in range(2)
    )
    assert flagged


def test_public_model_closes_ranking_channel():
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    runner = algorithm_runner("roundrobin")
    for agent in range(2):
        rep = sp_check_ordinal(runner, inst, agent, model=Model.PUBLIC_RANKING)
        assert not rep.profitable
        assert rep.best_deviation_cost == rep.truthful_cost
        assert "channel closed" in rep.deviation


def test_public_model_grid_stays_truthful():
    rng = np.random.default_rng(67)
    for name in ("roundrobin", "dc3"):
        n = 3
        runner = algorithm_runner(name)
        for _ in range(4):
            inst = uniform_instance(rng, n, 5)
            for agent in range(n):
                rep = sp_check_ordinal(
                    runner, inst, agent, model=Model.PUBLIC_RANKING, include_grid=True
                )
                assert not rep.profitable, (name, rep)


def test_roundrobin_is_manipulable_under_free_rankings():
    # agent 2 truthfully grabs its cheapest item (1) and ends up with the
    # expensive leftover (7); picking the middle item first instead steers
    # agent 1 away and costs 6 + 1 < 1 + 7
    inst = CostMatrix.from_rows([[10, 1, 2, 3], [1, 5, 6, 7]])
    runner = algorithm_runner("roundrobin")
    rep = sp_check_ordinal(runner, inst, 1, model=Model.ORDINAL)
    assert rep.profitable
    assert rep.truthful_cost == 8
    assert rep.best_deviation_cost == 7


def test_runner_dispatches_like_allocate():
    # m <= n: the runner runs seqpick through allocate, as the CLI does,
    # and the last two agents pick once each, needing no schedule
    inst = CostMatrix.from_rows([[1, 2], [2, 1], [1, 1]])
    runner = algorithm_runner("seqpick")
    assert runner(inst) == allocate(inst, "seqpick")
    assert [len(b) for b in runner(inst).bundles] == [0, 1, 1]
    for agent in range(3):
        assert not sp_check_ordinal(runner, inst, agent, model=Model.ORDINAL).profitable


def test_deviation_search_refuses_factorial_blowup():
    inst = CostMatrix.from_rows([list(range(1, 9)), list(range(8, 0, -1))])
    with pytest.raises(ValueError, match="misreports"):
        sp_check_ordinal(algorithm_runner("seqpick"), inst, 0)


@pytest.mark.parametrize("runner", ["per matrix"])
def test_deviation_search_runs_each_distinct_reported_row_once(monkeypatch, runner):
    # the 5! rankings of the tied true row name 5!/(2! 2!) = 30 distinct
    # rows, and the 4^5 grid rows repeat some of them; a plain callable
    # always enumerates, and runs each distinct row once, the truthful one
    # included
    matrix = CostMatrix.from_rows([[2, 2, 1, 1, 3], [1, 2, 3, 4, 5]])
    true_row = matrix.costs[0]
    run = []

    def algorithm(mat):
        run.append(mat.costs[0])
        return allocate(mat, "roundrobin")

    sp_check_ordinal(algorithm, matrix, 0, model=Model.CARDINAL, include_grid=True)
    factors = product((0.5, 1.0, 2.0, 3.0), repeat=5)
    grid = {tuple(f * c for f, c in zip(fs, true_row)) for fs in factors}
    assert len(run) == len(set(run))
    assert set(run) == set(permutations(true_row)) | grid


GRID_FACTORS = (0.5, 1.0, 2.0, 3.0)


def descending_order(row):
    return tuple(sorted(range(len(row)), key=row.__getitem__, reverse=True))


def grid_rows(row):
    """The grid misreports of `row`, in enumeration order."""
    return [tuple(f * c for f, c in zip(fs, row)) for fs in product(GRID_FACTORS, repeat=len(row))]


def recording_allocate(monkeypatch, agent):
    """The agent's rows that a Runner runs, in order, from here on."""
    run = []
    engine = verify.allocate

    def recording(mat, alg):
        run.append(mat.costs[agent])
        return engine(mat, alg)

    monkeypatch.setattr(verify, "allocate", recording)
    return run


def recording_blocks(monkeypatch):
    """The grid blocks the checks build from here on."""
    blocks = []
    product_blocks = verify._product_blocks

    def recording(base, m):
        for digits in product_blocks(base, m):
            blocks.append(digits)
            yield digits

    monkeypatch.setattr(verify, "_product_blocks", recording)
    return blocks


def cheapest_leaf(matrix, name, agent):
    sequence = algorithms.pick_sequence(name, matrix.n, matrix.m)
    leaves = algorithms.pick_tree(matrix, sequence, agent)
    return min(sum(matrix.costs[agent][j] for j in leaf) for leaf in leaves)


def test_a_serial_pick_check_runs_each_distinct_ranking_once(monkeypatch):
    # a roundrobin runner reads the agent's row only through its
    # `model.rank` order, so the check runs one row per distinct order. No
    # ranking of the tied row reaches the cheapest leaf (3), so the scan
    # goes on into the grid, whose rows mostly repeat orders already run,
    # and stops at the first grid row that reaches it
    matrix = CostMatrix.from_rows([[1, 1, 1, 3, 4], [5, 1, 3, 4, 2]])
    true_row = matrix.costs[0]
    assert cheapest_leaf(matrix, "roundrobin", 0) == 3.0
    run = recording_allocate(monkeypatch, 0)
    rep = sp_check_ordinal(
        algorithm_runner("roundrobin"), matrix, 0, model=Model.CARDINAL, include_grid=True
    )
    assert (rep.truthful_cost, rep.best_deviation_cost) == (5.0, 3.0)
    assert rep.deviation == "grid factors (1.0, 0.5, 1.0, 0.5, 0.5)"
    # every row the scan met: the rankings, then the grid up to the named row
    grid = grid_rows(true_row)
    met = set(permutations(true_row)) | set(grid[: grid.index((1.0, 0.5, 1.0, 1.5, 2.0)) + 1])
    orders = [descending_order(row) for row in run]
    assert run[0] == true_row
    assert len(orders) == len(set(orders))
    assert set(orders) == {descending_order(row) for row in met}
    assert len(met) > len(orders)


def test_a_failing_serial_pick_check_stops_at_the_cheapest_leaf(monkeypatch):
    # the agent's cheapest leaf costs 25, which a ranking misreport reaches
    # (as one always does for a row of distinct costs): the check names
    # that first such ranking and runs nothing after it, the grid included
    matrix = CostMatrix.from_rows([[8, 9, 10, 11, 1, 7, 12], [14, 4, 3, 5, 13, 6, 2]])
    assert cheapest_leaf(matrix, "roundrobin", 0) == 25.0
    run = recording_allocate(monkeypatch, 0)
    rep = sp_check_ordinal(
        algorithm_runner("roundrobin"), matrix, 0, model=Model.CARDINAL, include_grid=True
    )
    assert (rep.best_deviation_cost, rep.deviation) == (25.0, "ranking (1, 3, 4, 2, 5, 7, 6)")
    true_row = matrix.costs[0]
    values = sorted(true_row, reverse=True)
    named = [0.0] * 7
    for pos, j in enumerate((0, 2, 3, 1, 4, 6, 5)):
        named[j] = values[pos]
    assert run[-1] == tuple(named)
    assert all(sorted(row) == sorted(true_row) for row in run)
    assert len(run) < len(set(permutations(true_row)))


def test_a_failing_serial_pick_check_stops_in_the_grid_at_the_cheapest_leaf(monkeypatch):
    # the agent's row ties items 1 and 3, which a pick breaks toward item
    # 3, so no ranking misreport takes item 1 first and reaches the
    # cheapest leaf (6): the scan goes on into the grid and stops at the
    # first grid row that does. The truthful row, its two other rankings
    # and one grid row run
    matrix = CostMatrix.from_rows([[3, 4, 3], [1, 2, 3]])
    assert cheapest_leaf(matrix, "roundrobin", 0) == 6.0
    run = recording_allocate(monkeypatch, 0)
    rep = sp_check_ordinal(
        algorithm_runner("roundrobin"), matrix, 0, model=Model.CARDINAL, include_grid=True
    )
    assert (rep.truthful_cost, rep.best_deviation_cost) == (7.0, 6.0)
    assert rep.deviation == "grid factors (0.5, 0.5, 1.0)"
    assert run[-1] == (1.5, 2.0, 3.0)
    assert len(run) == 4


@pytest.mark.parametrize(
    "name, model, grid",
    [
        ("seqpick", Model.ORDINAL, False),
        ("seqpick", Model.CARDINAL, True),
        ("roundrobin", Model.PUBLIC_RANKING, True),
    ],
)
def test_a_passing_serial_pick_check_runs_the_truthful_row_alone(monkeypatch, name, model, grid):
    # the agent's pick tree has no leaf cheaper than the truth, or under
    # public rankings every grid row kept has the truthful ranking, so no
    # misreport is enumerated, even at the item limit: the runner's one
    # call is the truthful row's, and no grid block is built
    rng = np.random.default_rng(2019)
    matrix = uniform_instance(rng, 3, 7)
    run = recording_allocate(monkeypatch, 0)
    blocks = recording_blocks(monkeypatch)
    for agent in range(3):
        run.clear()
        runner = algorithm_runner(name)
        rep = sp_check_ordinal(runner, matrix, agent, model=model, include_grid=grid)
        assert rep.deviation == "truthful"
        assert len(run) == 1
    assert blocks == []


def test_a_public_grid_divider_check_runs_each_distinct_ranking_once(monkeypatch):
    # dc3's divider reads its row only through its `model.rank` order, so
    # the check runs one row per distinct order. Under public rankings the
    # filter keeps a grid row only when its order is the public one: many
    # rows, some with new ties, but one order, so the truthful row is the
    # one run and no grid block is built. The cardinal
    # check, which has no leaves to stop at, enumerates every ranking and
    # grid row, many rows per order
    matrix = CostMatrix.from_rows([[2, 4, 3, 1, 2], [1, 2, 3, 4, 5], [3, 1, 1, 2, 4]])
    true_row = matrix.costs[0]
    grid = grid_rows(true_row)
    order = rankings(matrix)[0]
    assert len({row for row in grid if descending_order(row) == order}) > 1
    run = recording_allocate(monkeypatch, 0)
    blocks = recording_blocks(monkeypatch)
    for model in (Model.PUBLIC_RANKING, Model.CARDINAL):
        run.clear()
        rep = sp_check_ordinal(algorithm_runner("dc3"), matrix, 0, model=model, include_grid=True)
        if model is Model.PUBLIC_RANKING:
            assert rep.deviation == "truthful"
            assert run == [true_row] and blocks == []
    met = set(permutations(true_row)) | set(grid)
    orders = [descending_order(row) for row in run]
    assert run[0] == true_row
    assert len(orders) == len(set(orders))
    assert set(orders) == {descending_order(row) for row in met}
    assert len(met) > len(orders)


@pytest.mark.parametrize(
    "model, grid",
    [(Model.CARDINAL, False), (Model.CARDINAL, True), (Model.PUBLIC_RANKING, True)],
)
def test_a_passing_chooser_check_runs_the_truthful_row_alone(monkeypatch, model, grid):
    # a dc3 chooser ends with a bundle on offer, and its truthful row takes
    # the cheapest, so no misreport is enumerated, even at the item limit:
    # the runner's one call is the truthful row's
    rng = np.random.default_rng(2019)
    matrix = uniform_instance(rng, 3, 7)
    run = recording_allocate(monkeypatch, 0)
    for agent in (1, 2):
        run.clear()
        rep = sp_check_ordinal(
            algorithm_runner("dc3"), matrix, agent, model=model, include_grid=grid
        )
        assert rep.deviation == "truthful"
        assert len(run) == 1


def test_deviation_report_jsonable_is_one_indexed():
    inst = CostMatrix.from_rows([[2, 1, 1], [1, 1, 2]])
    rep = sp_check_ordinal(algorithm_runner("seqpick"), inst, 1)
    doc = rep.to_jsonable()
    assert doc["agent"] == 2
    assert set(doc) == {
        "agent",
        "truthful_cost",
        "best_deviation_cost",
        "deviation",
        "profitable",
    }


def test_a_runner_the_model_refuses_is_refused_before_it_runs(monkeypatch):
    # dc3 under the ordinal model, refused as allocate and the CLI refuse it
    run = recording_allocate(monkeypatch, 0)
    inst = CostMatrix.from_rows([[3, 1, 2], [1, 3, 2], [2, 1, 3]])
    message = "^dc3 compares bundle costs, which the ordinal model withholds$"
    with pytest.raises(ValueError, match=message):
        sp_check_ordinal(algorithm_runner("dc3"), inst, 0, model=Model.ORDINAL)
    assert run == []


# --- randomized deviation search ---------------------------------------------

def test_randdecl_truthful_exact():
    rng = np.random.default_rng(71)
    for _ in range(6):
        m = int(rng.integers(3, 6))
        inst = uniform_instance(rng, 2, m)
        for agent in range(2):
            rep = sp_check_randomized(inst, agent, mode="exact")
            assert not rep.profitable, rep
            assert rep.deviation == "truthful"


def test_randdecl_truthful_montecarlo():
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    rep = sp_check_randomized(inst, 0, mode="montecarlo")
    assert not rep.profitable


def test_exact_mode_refuses_huge_enumeration():
    inst = uniform_instance(np.random.default_rng(0), 4, 12)
    with pytest.raises(ValueError, match="infeasible"):
        sp_check_randomized(inst, 0, mode="exact")


def test_enumeration_past_the_limit_is_refused_at_once(monkeypatch):
    # a library call on 4^32 landings is refused before any block is made
    monkeypatch.setattr(verify, "_product_blocks", lambda base, m: pytest.fail("enumerated"))
    inst = uniform_instance(np.random.default_rng(0), 4, 32)
    with pytest.raises(ValueError, match="^exact enumeration of 4\\^32 landings is infeasible"):
        enum_expected_cost(inst, 0)


def test_randomized_search_refuses_too_many_label_sets(monkeypatch):
    # 4 agents declare 5 items each: C(32, 5) = 201376 label sets is past
    # the limit, and the refusal comes before any set is priced
    inst = uniform_instance(np.random.default_rng(0), 4, 32)
    priced = []

    def oracle(matrix, agent, labels):
        priced.append(labels[agent])
        return 0.0

    with pytest.raises(ValueError, match=r"^32 items means C\(32, 5\) = 201376 label sets;"):
        sp_check_randomized(inst, 0, mode="montecarlo", expected_cost=oracle)
    assert priced == []
    # exact mode refuses its 4^32 landings first, with its own message
    with pytest.raises(ValueError, match="^exact enumeration of 4\\^32 landings is infeasible"):
        sp_check_randomized(inst, 0, mode="exact")
    # a count at the limit is searched: 2x6 has C(6, 2) = 15 label sets
    monkeypatch.setattr(verify, "MAX_ENUMERATION", 15)
    inst = uniform_instance(np.random.default_rng(0), 2, 6)
    sp_check_randomized(inst, 0, mode="montecarlo", expected_cost=oracle)
    assert len(priced) == 1 + 15
    inst = uniform_instance(np.random.default_rng(0), 2, 7)
    with pytest.raises(ValueError, match=r"C\(7, 2\) = 21 label sets"):
        sp_check_randomized(inst, 0, mode="montecarlo", expected_cost=oracle)


def test_randdecl_overflow_is_refused_not_passed(recwarn):
    # the sum over trials or landings overflows to inf: no cross-check is
    # possible, so neither mode may report a pass
    inst = CostMatrix.from_rows([[1e308, 1, 1, 1], [1, 2, 3, 4]])
    with pytest.raises(ValueError, match="^closed form .*, Monte-Carlo estimate inf .* is not finite"):
        sp_check_randomized(inst, 0, mode="montecarlo")
    with pytest.raises(ValueError, match="^closed form .*, enumeration inf .* is not finite"):
        sp_check_randomized(inst, 0, mode="exact")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_mc_stderr_is_exact_past_the_square_root_of_the_float_range():
    # each trial's cost squared passes 1e308 at these costs; a power-of-two
    # unit scales every trial and the standard error exactly
    rows = [[3e160, 1e160, 2e160, 5e159], [1e160, 2e160, 3e160, 4e160]]
    est, stderr = mc_expected_cost(CostMatrix.from_rows(rows), 0, trials=500)
    small = CostMatrix.from_rows([[c * 2.0**-600 for c in row] for row in rows])
    assert math.isfinite(stderr) and stderr > 0
    assert (est, stderr) == tuple(x * 2.0**600 for x in mc_expected_cost(small, 0, trials=500))


def test_exact_cross_check_disagreement_stays_an_assertion(monkeypatch):
    closed_form = verify.randdecl_expected_cost
    monkeypatch.setattr(
        verify, "randdecl_expected_cost", lambda *a, **kw: closed_form(*a, **kw) + 1.0
    )
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    with pytest.raises(AssertionError, match="disagrees with enumeration"):
        sp_check_randomized(inst, 0, mode="exact")


def test_montecarlo_cross_check_disagreement_stays_an_assertion(monkeypatch):
    closed_form = verify.randdecl_expected_cost
    monkeypatch.setattr(
        verify, "randdecl_expected_cost", lambda *a, **kw: closed_form(*a, **kw) + 1.0
    )
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    with pytest.raises(AssertionError, match="^closed form .* disagrees with Monte-Carlo estimate"):
        sp_check_randomized(inst, 0, mode="montecarlo")


@pytest.mark.parametrize("mode", ["exact", "montecarlo"])
def test_cross_check_confirms_the_reported_deviation(monkeypatch, mode):
    # a closed form 1 too low off the truthful profile alone: the search
    # finds labels (3, 5) at 4.75 against the truth's 5.5, and the
    # cross-check must refuse to report them
    inst = CostMatrix.from_rows([[3, 1, 2, 1, 5], [1, 1, 1, 3, 2]])
    closed_form = verify.randdecl_expected_cost
    truthful_labels = label_sets(inst)

    def wrong_off_the_truth(matrix, agent, labels):
        return closed_form(matrix, agent, labels) - (labels != truthful_labels)

    monkeypatch.setattr(verify, "randdecl_expected_cost", wrong_off_the_truth)
    with pytest.raises(AssertionError, match=r"^closed form 4\.75 disagrees .* labels \[2, 4\]$"):
        sp_check_randomized(inst, 0, mode=mode)


@pytest.mark.parametrize(
    "mode, estimator, as_estimate",
    [
        ("exact", "enum_expected_cost", lambda cost: cost),
        ("montecarlo", "mc_expected_cost", lambda cost: (cost, 0.0)),
    ],
    ids=["exact", "montecarlo"],
)
def test_cross_check_estimates_each_distinct_profile_once(
    monkeypatch, mode, estimator, as_estimate
):
    calls = []

    def counting(estimate):
        def counted(matrix, agent, labels, *trials):
            calls.append(labels)
            return estimate(matrix, agent, labels, *trials)

        return counted

    inst = CostMatrix.from_rows([[3, 1, 2, 1, 5], [1, 1, 1, 3, 2]])
    # a passing check: the truthful profile is the best one, cross-checked once
    monkeypatch.setattr(verify, estimator, counting(getattr(verify, estimator)))
    assert not sp_check_randomized(inst, 0, mode=mode).profitable
    assert len(calls) == 1
    # under the inverted-pool rule, with an estimator that agrees, a lie
    # pays: truth and best are both checked
    calls.clear()
    monkeypatch.setattr(verify, "randdecl_expected_cost", inverted_pool_expected_cost)
    monkeypatch.setattr(
        verify,
        estimator,
        counting(lambda *args: as_estimate(inverted_pool_expected_cost(*args[:3]))),
    )
    assert sp_check_randomized(inst, 0, mode=mode).profitable
    assert len(calls) == 2 and calls[0] != calls[1]


@pytest.mark.parametrize("mode", ["exact", "montecarlo"])
def test_truthful_labels_are_built_once_per_check(monkeypatch, mode):
    calls = []
    real = algorithms.label_sets

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(algorithms, "label_sets", counting)
    monkeypatch.setattr(verify, "label_sets", counting)
    inst = CostMatrix.from_rows([[3, 1, 2, 1, 5], [1, 1, 1, 3, 2]])
    rep = sp_check_randomized(inst, 1, mode=mode)
    assert not rep.profitable
    assert len(calls) == 1


@pytest.mark.parametrize(
    "mode, refusal",
    [
        ("exact", None),
        ("montecarlo", None),
        ("exact", "^exact enumeration of 2\\^18 landings is infeasible"),
        ("bogus", "^unknown mode 'bogus'$"),
    ],
    ids=["exact", "montecarlo", "too-many-landings", "unknown-mode"],
)
def test_closed_form_runs_once_per_label_set_and_never_on_a_refusal(monkeypatch, mode, refusal):
    # the cross-check reuses the values the search found; a request it
    # would refuse is refused before the search
    calls = []
    closed_form = verify.randdecl_expected_cost

    def counting(matrix, agent, labels):
        calls.append(labels)
        return closed_form(matrix, agent, labels)

    monkeypatch.setattr(verify, "randdecl_expected_cost", counting)
    m = 18 if refusal and mode == "exact" else 5
    inst = CostMatrix.from_rows([[float(j % 4 + 1) for j in range(m)], [1.0] * m])
    if refusal:
        with pytest.raises(ValueError, match=refusal):
            sp_check_randomized(inst, 0, mode=mode)
        assert calls == []
    else:
        sp_check_randomized(inst, 0, mode=mode)
        assert len(calls) == 1 + math.comb(m, label_count(2, m))


def test_inverted_pool_mutant_is_flagged():
    rng = np.random.default_rng(73)
    flagged = 0
    for _ in range(6):
        m = int(rng.integers(3, 6))
        inst = uniform_instance(rng, 2, m)
        rep = sp_check_randomized(
            inst, 0, mode="exact", expected_cost=inverted_pool_expected_cost
        )
        flagged += rep.profitable
    assert flagged >= 5  # lying is profitable on essentially every draw


def test_mc_estimate_agrees_with_enumeration():
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    exact = enum_expected_cost(inst, 0)
    est, stderr = mc_expected_cost(inst, 0, trials=20_000, seed=11)
    assert abs(est - exact) <= 6 * stderr


# --- monotonicity ----------------------------------------------------------------

def test_monotonicity_holds_for_shipped_algorithms():
    rng = np.random.default_rng(79)
    for _ in range(5):
        inst = uniform_instance(rng, 3, 7)
        assert monotonicity_check(algorithm_runner("seqpick"), inst) is None
        assert (
            monotonicity_check(algorithm_runner("roundrobin"), inst, ranking_preserving=True)
            is None
        )
        assert monotonicity_check(algorithm_runner("dc3"), inst, ranking_preserving=True) is None


def test_argmax_mutant_is_not_monotone():
    rng = np.random.default_rng(83)
    caught = 0
    for _ in range(5):
        inst = uniform_instance(rng, 3, 7)
        cex = monotonicity_check(argmax_assigner, inst)
        caught += cex is not None
        if cex is not None:
            assert cex.bundle_before != cex.bundle_after
    assert caught == 5


def test_roundrobin_not_monotone_under_raw_cardinal_probes():
    # a known counterexample: lowering agent 1's cost of a held item
    # reshuffles the pick order and changes its bundle
    inst = CostMatrix.from_rows([[1, 2, 3], [1, 3, 2]])
    cex = monotonicity_check(algorithm_runner("roundrobin"), inst)
    assert cex is not None


@pytest.mark.parametrize("rows", [[[0.0]], [[0.0] * 4] * 3, [[2.0] * 4] * 3])
def test_zero_and_tied_rows_are_checked_under_ranking_preserving(rows):
    # a held zero cannot be lowered and a tie blocks every rank-keeping move
    # but the first-ranked item's raise, so few moves or none remain: the
    # check passes rather than running out of moves to try
    matrix = CostMatrix.from_rows(rows)
    names = ("seqpick", "roundrobin", "dc3") if matrix.n == 3 else ("seqpick", "roundrobin")
    for name in names:
        assert monotonicity_check(algorithm_runner(name), matrix, ranking_preserving=True) is None


def test_a_zero_cost_unheld_item_is_raised():
    # the first agent holds nothing; raising its zero cost of the first item
    # above its own maximum, to 1, ties the other agent's cost, and argmax
    # breaks the tie toward the lower agent index
    cex = monotonicity_check(argmax_assigner, CostMatrix.from_rows([[0, 0], [1, 1]]))
    assert cex == verify.MonotonicityCounterexample(
        agent=0,
        item=0,
        old_cost=0.0,
        new_cost=1.0,
        bundle_before=frozenset(),
        bundle_after=frozenset({0}),
    )


def test_moves_near_the_float_limit_are_valid_rows():
    # raising a small entry to 1e308, or past it, takes the row's sum past
    # the float range, so no such move runs: the check neither raises nor
    # runs an invalid row
    runs = []

    def seqpick(matrix):
        runs.append(matrix)
        return allocate(matrix, "seqpick")

    matrix = CostMatrix.from_rows([[1e308, 1, 2], [3, 1e308, 1]])
    assert monotonicity_check(seqpick, matrix) is None
    assert len(runs) > 1
    assert all(row_problems(row) == [] for run in runs for row in run.costs)


@pytest.mark.parametrize(
    "row", [[6e307, 1.0], [1.0, 6e307, 0.0], [1e308, 1e307], [8e307, 8e307], [1e308, 7e307, 1.0]]
)
@pytest.mark.parametrize("preserving", [False, True])
def test_a_raise_above_the_maximum_keeps_the_row_sum_finite(row, preserving):
    # twice the maximum leaves the float range here, so the raise above it
    # takes the next float, where the sum allows one. On the last row the
    # midpoints of the gaps above 1.0 and 7e307 leave it too, so each raise
    # into those gaps takes the gap's least float, whose row sums to a float
    reached = moved_rankings(monotonicity_check, row, set(), preserving)
    assert reached == move_rankings_reference(row, set(), preserving)


# --- lower-bound witnesses -----------------------------------------------------

def test_deterministic_witness_value():
    value, alloc = witness_ordinal_det()
    assert value == Fraction(4, 3)
    assert sorted(len(b) for b in alloc.bundles) == [2, 2]
    assert alloc.check_partition(4) == []


def test_randomized_witness_value_and_mix():
    value, p_star = witness_ordinal_rand()
    assert value == Fraction(6, 5)
    assert p_star == Fraction(3, 5)


def test_randomized_witness_grid_cross_check():
    value, p_star = witness_ordinal_rand_grid()
    assert value == pytest.approx(6 / 5, abs=1e-6)
    assert p_star == pytest.approx(3 / 5, abs=2e-6)


def test_fixture_families():
    det = fixture_instances("cardinal_43")
    assert len(det) == 3
    assert all(inst.n == 2 and inst.m == 4 for inst in det)
    rand = fixture_instances("public_65")
    assert len(rand) == 6
    assert all(inst.n == 2 and inst.m == 6 for inst in rand)
    last = [(inst.row(0)[-1], inst.row(1)[-1]) for inst in rand]
    assert last == [(1, 1), (5, 1), (5, 5), (3, 5), (3, 1), (3, 3)]
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture_instances("nope")
