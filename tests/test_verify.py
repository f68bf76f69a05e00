import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from choremms import algorithms, verify
from choremms.algorithms import allocate, label_count
from choremms.model import Allocation, CostMatrix, Model
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
from oracles import witness_ordinal_rand_grid


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
    # m <= n: allocate's one-item-each bypass applies to the checkers too,
    # instead of seqpick's "schedule needs m > n"
    inst = CostMatrix.from_rows([[1, 2], [2, 1], [1, 1]])
    runner = algorithm_runner("seqpick")
    assert runner(inst) == allocate(inst, "seqpick")
    for agent in range(3):
        assert not sp_check_ordinal(runner, inst, agent, model=Model.ORDINAL).profitable


def test_deviation_search_refuses_factorial_blowup():
    inst = CostMatrix.from_rows([list(range(1, 9)), list(range(8, 0, -1))])
    with pytest.raises(ValueError, match="misreports"):
        sp_check_ordinal(algorithm_runner("seqpick"), inst, 0)


@pytest.mark.parametrize("runner", ["block", "per matrix"])
def test_deviation_search_runs_each_distinct_reported_row_once(monkeypatch, runner):
    # the 5! rankings of each tied true row name 5!/(2! 2!) = 30 distinct
    # rows, and the 4^5 grid rows repeat some of them. The block case's
    # agent gains by a misreport (7 -> 5), so its check enumerates rather
    # than proves; a plain callable always enumerates. The block engine
    # records the misreports only: the truthful row runs by a plain call.
    if runner == "block":
        matrix = CostMatrix.from_rows([[1, 4, 4, 2, 2], [3, 2, 5, 1, 5]])
    else:
        matrix = CostMatrix.from_rows([[2, 2, 1, 1, 3], [1, 2, 3, 4, 5]])
    true_row = matrix.costs[0]
    run = []
    if runner == "block":
        engine = algorithms.serial_pick

        def recording(mat, sequence, reports=None):
            assert reports is not None and reports[0] == 0
            run.extend(reports[1])
            return engine(mat, sequence, reports)

        monkeypatch.setattr(verify, "serial_pick", recording)
        algorithm = algorithm_runner("roundrobin")
    else:

        def algorithm(mat):
            run.append(mat.costs[0])
            return allocate(mat, "roundrobin")

    sp_check_ordinal(algorithm, matrix, 0, model=Model.CARDINAL, include_grid=True)
    factors = product((0.5, 1.0, 2.0, 3.0), repeat=5)
    grid = {tuple(f * c for f, c in zip(fs, true_row)) for fs in factors}
    assert len(run) == len(set(run))
    assert (true_row in run) == (runner == "per matrix")
    assert set(run) | {true_row} == set(permutations(true_row)) | grid


@pytest.mark.parametrize(
    "name, model, grid",
    [
        ("seqpick", Model.ORDINAL, False),
        ("seqpick", Model.CARDINAL, True),
        ("roundrobin", Model.PUBLIC_RANKING, True),
    ],
)
def test_a_passing_serial_pick_check_runs_the_truthful_row_alone(monkeypatch, name, model, grid):
    # the agent's pick tree has no leaf cheaper than the truth, so no
    # misreport is enumerated, even at the item limit: the runner's one
    # call is the truthful row's, and the block engine never runs
    rng = np.random.default_rng(2019)
    matrix = uniform_instance(rng, 3, 7)
    calls = []
    blocks = []
    engine = verify.allocate

    def counting(mat, alg):
        calls.append(mat.costs)
        return engine(mat, alg)

    monkeypatch.setattr(verify, "allocate", counting)
    monkeypatch.setattr(verify, "serial_pick", lambda *args: blocks.append(args))
    for agent in range(3):
        calls.clear()
        runner = algorithm_runner(name)
        rep = sp_check_ordinal(runner, matrix, agent, model=model, include_grid=grid)
        assert rep.deviation == "truthful"
        assert len(calls) == 1
    assert blocks == []


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
    with pytest.raises(ValueError, match="^Monte-Carlo estimate inf .* is not finite"):
        sp_check_randomized(inst, 0, mode="montecarlo")
    with pytest.raises(ValueError, match="^expected cost is not finite"):
        sp_check_randomized(inst, 0, mode="exact")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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
    with pytest.raises(AssertionError, match="Monte-Carlo estimate .* away from the closed form"):
        sp_check_randomized(inst, 0, mode="montecarlo")


def test_exact_cross_check_enumerates_each_distinct_profile_once(monkeypatch):
    calls = []

    def counting(enumerate_with):
        def enum(matrix, agent, labels):
            calls.append(labels)
            return enumerate_with(matrix, agent, labels)

        return enum

    inst = CostMatrix.from_rows([[3, 1, 2, 1, 5], [1, 1, 1, 3, 2]])
    # a passing check: the truthful profile is the best one, cross-checked once
    monkeypatch.setattr(verify, "enum_expected_cost", counting(enum_expected_cost))
    assert not sp_check_randomized(inst, 0, mode="exact").profitable
    assert len(calls) == 1
    # under the inverted-pool rule a lie pays: truth and best are both checked
    calls.clear()
    monkeypatch.setattr(verify, "randdecl_expected_cost", inverted_pool_expected_cost)
    monkeypatch.setattr(verify, "enum_expected_cost", counting(inverted_pool_expected_cost))
    assert sp_check_randomized(inst, 0, mode="exact").profitable
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
        assert monotonicity_check(algorithm_runner("seqpick"), inst, 60, seed=1) is None
        assert (
            monotonicity_check(
                algorithm_runner("roundrobin"), inst, 60, seed=1, ranking_preserving=True
            )
            is None
        )
        assert (
            monotonicity_check(
                algorithm_runner("dc3"), inst, 60, seed=1, ranking_preserving=True
            )
            is None
        )


def test_argmax_mutant_is_not_monotone():
    rng = np.random.default_rng(83)
    caught = 0
    for _ in range(5):
        inst = uniform_instance(rng, 3, 7)
        cex = monotonicity_check(argmax_assigner, inst, 200, seed=2)
        caught += cex is not None
        if cex is not None:
            assert cex.bundle_before != cex.bundle_after
    assert caught >= 4


def test_roundrobin_not_monotone_under_raw_cardinal_probes():
    # a known counterexample: lowering agent 1's cost of a held item
    # reshuffles the pick order and changes its bundle
    inst = CostMatrix.from_rows([[1, 2, 3], [1, 3, 2]])
    cex = monotonicity_check(algorithm_runner("roundrobin"), inst, 300, seed=5)
    assert cex is not None


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
