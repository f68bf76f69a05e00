import json
import logging
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choremms.algorithms import (
    PickSchedule,
    allocate,
    build_schedule,
    check_schedule,
    divide_choose_3,
    label_count,
    label_sets,
    randdecl,
    randdecl_expected_cost,
    roundrobin,
    seqpick,
)
from choremms.mms import evaluate, mms_exact
from choremms.model import CostMatrix, Model, rank, rankings, surrogate_matrix
from choremms.verify import (
    algorithm_runner,
    enum_expected_cost,
    mc_expected_cost,
    sp_check_ordinal,
)


def uniform_instance(rng, n, m):
    return CostMatrix.from_rows(rng.uniform(0.01, 1.0, (n, m)).tolist())


# --- schedule ---------------------------------------------------------------

def test_schedule_n4_m8():
    s = build_schedule(4, 8)
    assert s.counts == (2, 2, 2, 2)
    assert s.k_param == pytest.approx(2.0)


def test_schedule_partitions_items():
    s = build_schedule(2, 4)
    assert sum(s.counts) == 4
    assert check_schedule(s, 2, 4) == []


def test_schedule_large_instance_obligations():
    s = build_schedule(10, 1000)
    assert sum(s.counts) == 1000
    assert check_schedule(s, 10, 1000) == []


def test_schedule_sweep_sample():
    for n in (2, 3, 5, 8, 13, 32, 64):
        for m in (n + 1, 2 * n, 4 * n + 3, 500, 4096):
            if m <= n:
                continue
            s = build_schedule(n, m)
            assert sum(s.counts) == m
            assert check_schedule(s, n, m) == [], (n, m)


def test_schedule_refuses_m_le_n():
    with pytest.raises(ValueError, match="m > n"):
        build_schedule(4, 4)


def test_schedule_deficit_repair_recorded():
    s = build_schedule(2, 100)  # tiny n, huge m: formula cannot cover m
    assert s.repaired > 0
    assert sum(s.counts) == 100


def test_check_schedule_reports_each_violation():
    # n=4: entries 3 and 4 face the growth cap K*ceil(prefix/4), K=2
    assert check_schedule(PickSchedule((2, 2, 4), 2.0, 0), 4, 8) == [
        "schedule has 3 entries, expected 4"
    ]
    assert check_schedule(PickSchedule((2, 2, 2, 3), 2.0, 0), 4, 8) == [
        "schedule covers 9 items, expected 8"
    ]
    assert check_schedule(PickSchedule((2, 2, 3, 1), 2.0, 0), 4, 8) == [
        "a_3=3 exceeds growth cap K*ceil(prefix/n)=2"
    ]
    # the deficit-repaired last entry is exempt from the cap, and only it
    assert check_schedule(PickSchedule((2, 2, 2, 5), 2.0, 3), 4, 11) == []
    assert check_schedule(PickSchedule((2, 2, 2, 5), 2.0, 0), 4, 11) == [
        "a_4=5 exceeds growth cap K*ceil(prefix/n)=4"
    ]
    assert check_schedule(PickSchedule((2, 2, 3, 4), 2.0, 1), 4, 11) == [
        "a_3=3 exceeds growth cap K*ceil(prefix/n)=2"
    ]


def test_schedule_built_once_per_size(caplog):
    build_schedule.cache_clear()
    with caplog.at_level(logging.INFO, logger="choremms.algorithms"):
        first = build_schedule(2, 100)
        assert build_schedule(2, 100) is first
    assert len(caplog.records) == 1  # the repair is logged when first built


# --- seqpick -----------------------------------------------------------------

def test_seqpick_tie_break_example():
    m = CostMatrix.from_rows([[3, 1, 1, 1], [3, 1, 1, 1]])
    alloc = seqpick(m)
    # cheapest two, ties going to the higher index
    assert alloc.bundles[1] == frozenset({2, 3})
    assert alloc.bundles[0] == frozenset({0, 1})


def test_seqpick_opposed_rows():
    m = CostMatrix.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
    alloc = seqpick(m)
    assert alloc.bundles[1] == frozenset({2, 3})
    assert alloc.bundles[0] == frozenset({0, 1})


def test_seqpick_single_agent_schedule():
    m = CostMatrix.from_rows([[5, 1, 2]])
    alloc = seqpick(m)
    assert alloc.bundles == (frozenset({0, 1, 2}),)


def test_seqpick_greedy_is_dominant():
    # at each picker's turn, the set seqpick gave it is the cheapest
    # same-size set of the items still left
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, 7))
        inst = uniform_instance(rng, n, m)
        sched = build_schedule(n, m)
        alloc = seqpick(inst)
        remaining = set(range(m))
        for i in reversed(range(n)):
            row = inst.row(i)
            take = alloc.bundles[i]
            greedy_cost = sum(row[j] for j in take)
            for alt in combinations(sorted(remaining), sched.counts[i]):
                assert sum(row[j] for j in alt) >= greedy_cost - 1e-12
            remaining.difference_update(take)


def test_seqpick_output_is_partition():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 15))
        inst = uniform_instance(rng, n, m)
        assert seqpick(inst).check_partition(m) == []


# --- randdecl -----------------------------------------------------------------

def test_label_count_values():
    assert label_count(2, 4) == 2  # floor(2 * sqrt(1))
    assert label_count(4, 100) == 5  # floor(4 * sqrt(2))
    assert label_count(2, 1) == 1  # capped by m


def test_label_sets_tie_break():
    m = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    assert label_sets(m) == (frozenset({0, 1}), frozenset({3, 0}))


def test_pool_membership_uniform_rows():
    # identical labels {0,1}: those items are pooled under every landing
    m = CostMatrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    labels = label_sets(m)
    for landing in product(range(2), repeat=4):
        pooled = {j for j in range(4) if j in labels[landing[j]]}
        assert pooled == {0, 1}


def test_pool_membership_asymmetric_rows():
    m = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    labels = label_sets(m)
    for landing in product(range(2), repeat=4):
        pooled = {j for j in range(4) if j in labels[landing[j]]}
        assert 0 in pooled  # labeled large by both agents
        assert (1 in pooled) == (landing[1] == 0)
        assert (3 in pooled) == (landing[3] == 1)
        assert 2 not in pooled


def test_randdecl_partition_and_reproducibility():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n + 1, 12))
        inst = uniform_instance(rng, n, m)
        seed = int(rng.integers(0, 2**31))
        a = randdecl(inst, seed)
        assert a.check_partition(m) == []
        assert randdecl(inst, seed) == a
        sizes = sorted(len(b) for b in a.bundles)
        # phase-2 deal keeps pooled shares within one of each other, but
        # phase-1 landings are free; just sanity-check coverage
        assert sum(sizes) == m


def test_randdecl_bundles_hold_python_ints():
    # the deal runs on numpy arrays; the bundles must not carry numpy ints
    inst = uniform_instance(np.random.default_rng(5), 3, 300)
    alloc = randdecl(inst, 9)
    assert all(type(j) is int for bundle in alloc.bundles for j in bundle)
    json.dumps([sorted(bundle) for bundle in alloc.bundles])


@pytest.mark.parametrize(
    "declare",
    [
        lambda inst, labels: randdecl(inst, 0, labels=labels),
        lambda inst, labels: randdecl_expected_cost(inst, 0, labels),
        lambda inst, labels: enum_expected_cost(inst, 0, labels),
        lambda inst, labels: mc_expected_cost(inst, 0, labels, trials=2),
    ],
    ids=["randdecl", "randdecl_expected_cost", "enum_expected_cost", "mc_expected_cost"],
)
def test_randdecl_label_override_size_checked(declare):
    inst = CostMatrix.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
    with pytest.raises(ValueError, match="^label override must have size 2, got 1$"):
        declare(inst, [frozenset({0}), label_sets(inst)[1]])
    with pytest.raises(ValueError, match="^label profile must have 2 sets, got 1$"):
        declare(inst, label_sets(inst)[:1])


@pytest.mark.parametrize("item", [9, -1, 1.5, True, "1"])
def test_label_items_outside_the_instance_are_refused(item):
    inst = CostMatrix.from_rows([[3, 1, 2, 5], [1, 2, 3, 4]])
    labels = (frozenset({0, item}), frozenset({1, 2}))
    if type(item) is int:
        message = re.escape(f"label set {sorted({0, item})} names an item outside 0..3")
    else:
        message = re.escape(f"label item {item!r} is not an integer")
    for declare in (
        lambda: randdecl(inst, 0, labels=labels),
        lambda: randdecl_expected_cost(inst, 0, labels),
        lambda: enum_expected_cost(inst, 0, labels),
        lambda: mc_expected_cost(inst, 0, labels),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            declare()


def test_a_label_set_that_names_an_item_twice_is_refused():
    # a set of the canonical size counted with a repeat: the closed form
    # counts declarations, so it would count the repeat twice
    inst = CostMatrix.from_rows([[3, 1, 2, 5], [1, 2, 3, 4]])
    labels = ((0, 0), frozenset({1, 2}))
    message = re.escape("label set [0, 0] names an item twice")
    for declare in (
        lambda: randdecl(inst, 0, labels=labels),
        lambda: randdecl_expected_cost(inst, 0, labels),
        lambda: enum_expected_cost(inst, 0, labels),
        lambda: mc_expected_cost(inst, 0, labels),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            declare()


def test_a_checked_profile_of_another_instance_is_checked_again():
    # label_sets' profile of a 2x5 instance names item 4, which a 2x4
    # instance does not have: a profile label_sets built is checked like
    # any caller's
    labels = label_sets(CostMatrix.from_rows([[1, 1, 1, 5, 9], [9, 5, 1, 1, 1]]))
    inst = CostMatrix.from_rows([[3, 1, 2, 5], [1, 2, 3, 4]])
    message = re.escape("label set [3, 4] names an item outside 0..3")
    with pytest.raises(ValueError, match=f"^{message}$"):
        randdecl_expected_cost(inst, 0, labels)


def test_expected_cost_uniform_example():
    m = CostMatrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    assert randdecl_expected_cost(m, 0) == pytest.approx(2.0)
    assert randdecl_expected_cost(m, 1) == pytest.approx(2.0)


def test_expected_cost_zero_row():
    m = CostMatrix.from_rows([[0, 0, 0, 0], [1, 2, 3, 4]])
    other = label_sets(m)[1]
    for combo in combinations(range(4), label_count(2, 4)):
        assert randdecl_expected_cost(m, 0, [frozenset(combo), other]) == 0.0


def test_expected_cost_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(15):
        m_items = int(rng.integers(2, 6))
        inst = uniform_instance(rng, 2, m_items)
        for agent in range(2):
            closed = randdecl_expected_cost(inst, agent)
            assert closed == pytest.approx(
                enum_expected_cost(inst, agent), abs=1e-9
            )


def test_truthful_labels_minimize_expected_cost():
    rng = np.random.default_rng(29)
    for _ in range(15):
        m_items = int(rng.integers(2, 7))
        inst = uniform_instance(rng, 2, m_items)
        k = label_count(2, m_items)
        for agent in range(2):
            truthful = randdecl_expected_cost(inst, agent)
            for combo in combinations(range(m_items), k):
                labels = list(label_sets(inst))
                labels[agent] = frozenset(combo)
                assert randdecl_expected_cost(inst, agent, labels) >= truthful - 1e-9


def test_randdecl_empirical_mean_matches_expectation():
    inst = CostMatrix.from_rows([[3, 1, 1, 1], [1, 1, 1, 3]])
    expected = randdecl_expected_cost(inst, 0)
    seeds = np.random.SeedSequence(99).generate_state(4000)
    row = inst.row(0)
    mean = np.mean(
        [sum(row[j] for j in randdecl(inst, int(s)).bundles[0]) for s in seeds]
    )
    assert mean == pytest.approx(expected, abs=0.08)


# --- roundrobin ------------------------------------------------------------------

def test_roundrobin_identical_rows():
    m = CostMatrix.from_rows([[3, 1, 1, 1], [3, 1, 1, 1]])
    alloc = roundrobin(m)
    assert alloc.bundles[0] == frozenset({1, 3})
    assert alloc.bundles[1] == frozenset({2, 0})
    report = evaluate(alloc, m)
    assert report.max_ratio <= 2 - 0.5 + 1e-9


def test_roundrobin_opposed_rows_hits_mms():
    m = CostMatrix.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
    alloc = roundrobin(m)
    assert alloc.bundles[0] == frozenset({0, 1})
    assert alloc.bundles[1] == frozenset({3, 2})
    for i in range(2):
        assert m.cost_of(i, alloc.bundles[i]) == 3
        assert 3 <= mms_exact(m.row(i), 2).value


def test_roundrobin_one_item_each_when_m_equals_n():
    rng = np.random.default_rng(2)
    inst = uniform_instance(rng, 4, 4)
    alloc = roundrobin(inst)
    assert all(len(b) == 1 for b in alloc.bundles)


def test_pick_order_ties_descending_index():
    # four pickers on one shared row take its items in pick order:
    # cheapest first, ties by descending index, `rank`'s order reversed
    m = CostMatrix.from_rows([[3, 1, 1, 1]] * 4)
    assert [sorted(b) for b in roundrobin(m).bundles] == [[3], [2], [1], [0]]
    assert rank(m, 0) == (0, 1, 2, 3)


def test_roundrobin_custom_order():
    m = CostMatrix.from_rows([[3, 1, 1, 1], [3, 1, 1, 1]])
    alloc = roundrobin(m, agent_order=[1, 0])
    assert alloc.bundles[1] == frozenset({1, 3})


def test_roundrobin_rejects_bad_order():
    m = CostMatrix.from_rows([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="permutation"):
        roundrobin(m, agent_order=[0, 0])


def test_roundrobin_bound_small_sweep():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 11))
        inst = uniform_instance(rng, n, m)
        report = evaluate(roundrobin(inst), inst)
        assert report.max_ratio <= 2 - 1 / n + 1e-9


# --- divide and choose -------------------------------------------------------------

def test_dc3_identical_descending_rows():
    m = CostMatrix.from_rows([[5, 4, 3, 2, 1]] * 3)
    alloc = divide_choose_3(m)
    assert alloc.bundles[1] == frozenset({2, 4})  # cheapest bundle, cost 4
    assert alloc.bundles[2] == frozenset({0})  # then the single top item
    assert alloc.bundles[0] == frozenset({1, 3})
    report = evaluate(alloc, m)
    assert report.max_ratio == pytest.approx(6 / 5)
    assert report.max_ratio <= 1.5


def test_dc3_three_items_exact():
    rng = np.random.default_rng(6)
    inst = uniform_instance(rng, 3, 3)
    alloc = divide_choose_3(inst)
    assert all(len(b) == 1 for b in alloc.bundles)
    report = evaluate(alloc, inst)
    assert report.max_ratio <= 1.0 + 1e-12


def test_dc3_chooser_never_exceeds_own_share():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(4, 11))
        inst = uniform_instance(rng, 3, m)
        alloc = divide_choose_3(inst)
        cost2 = inst.cost_of(1, alloc.bundles[1])
        assert cost2 <= mms_exact(inst.row(1), 3).value + 1e-12


def test_dc3_requires_three_agents():
    m = CostMatrix.from_rows([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="n=3"):
        divide_choose_3(m)


def test_dc3_bound_small_sweep():
    rng = np.random.default_rng(37)
    for _ in range(30):
        m = int(rng.integers(4, 11))
        inst = uniform_instance(rng, 3, m)
        assert evaluate(divide_choose_3(inst), inst).max_ratio <= 1.5 + 1e-9


# --- dispatcher -----------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_every_rule_at_m_le_n_is_mms_and_strategyproof(data, seed):
    # with no more items than agents, every rule gives each agent at most
    # one item, which is within its share, and no serial-pick agent, nor a
    # dc3 agent under public rankings, gains by a misreport
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, n))
    if data.draw(st.booleans()):
        row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    else:
        row = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)
    inst = CostMatrix.from_rows(data.draw(st.lists(row, min_size=n, max_size=n)))
    rules = ["seqpick", "roundrobin"] + ["randdecl"] * (n > 1) + ["dc3"] * (n == 3)
    for alg in rules:
        alloc = allocate(inst, alg, seed=seed)
        assert all(len(b) <= 1 for b in alloc.bundles), alg
        assert evaluate(alloc, inst).max_ratio <= 1.0, alg
    # seqpick's last m agents pick once each
    assert [len(b) for b in seqpick(inst).bundles] == [0] * (n - m) + [1] * m
    for alg in ("seqpick", "roundrobin"):
        for model in Model:
            for grid in (False, True):
                for agent in range(n):
                    rep = sp_check_ordinal(
                        algorithm_runner(alg), inst, agent, model=model, include_grid=grid
                    )
                    assert not rep.profitable, (alg, model, grid, agent)
    if n == 3:
        for agent in range(3):
            rep = sp_check_ordinal(
                algorithm_runner("dc3"), inst, agent, model=Model.PUBLIC_RANKING, include_grid=True
            )
            assert not rep.profitable, agent


def test_dispatch_matches_direct_seqpick():
    rng = np.random.default_rng(43)
    inst = uniform_instance(rng, 3, 9)
    assert allocate(inst, "seqpick") == seqpick(inst)


def test_dispatch_errors():
    rng = np.random.default_rng(44)
    inst = uniform_instance(rng, 2, 5)
    with pytest.raises(ValueError, match="n=3"):
        allocate(inst, "dc3")
    with pytest.raises(ValueError, match="seed"):
        allocate(inst, "randdecl")
    with pytest.raises(ValueError, match="unknown algorithm"):
        allocate(inst, "nope")


@st.composite
def same_rankings(draw):
    """Two cost matrices whose rows rank the items alike, magnitudes aside.

    Each row is a ranking and a non-increasing cost for each position. A
    matrix may tie neighbouring positions only where the ranking already
    lists them by ascending index, which is how ties are broken, so one
    matrix can hold ties (e.g. [1, 1]) where the other has none ([2, 1]).
    """
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 8))
    rows_a, rows_b = [], []
    for _ in range(n):
        order = draw(st.permutations(range(m)))
        for rows in (rows_a, rows_b):
            row = [0] * m
            cost = row[order[-1]] = draw(st.integers(0, 9))
            for pos in range(m - 2, -1, -1):
                tie_ok = order[pos] < order[pos + 1]
                cost += draw(st.integers(0 if tie_ok else 1, 3))
                row[order[pos]] = cost
            rows.append(row)
    return CostMatrix.from_rows(rows_a), CostMatrix.from_rows(rows_b)


@settings(max_examples=150, deadline=None)
@given(pair=same_rankings(), seed=st.integers(0, 2**32 - 1))
@example(
    pair=(
        CostMatrix.from_rows([[1, 1, 0], [0, 1, 1]]),
        CostMatrix.from_rows([[2, 1, 0], [0, 2, 1]]),
    ),
    seed=5,
)
def test_ordinal_firewall(pair, seed):
    # identical rankings, different magnitudes: ordinal runs must coincide
    a, b = pair
    assert rankings(a) == rankings(b)
    for alg in ("seqpick", "roundrobin"):
        assert allocate(a, alg, model=Model.ORDINAL) == allocate(b, alg, model=Model.ORDINAL)
    assert allocate(a, "randdecl", model=Model.ORDINAL, seed=seed) == allocate(
        b, "randdecl", model=Model.ORDINAL, seed=seed
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_ordinal_model_needs_no_surrogate(data, seed):
    # on tied rows, the rank-only surrogate costs of the rankings give every
    # rule the ordinal model accepts the allocation the real costs give:
    # the pick breaks a tie as `rank` lists it, and randdecl's labels are
    # the top of `rank`
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 11))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    matrix = CostMatrix.from_rows(data.draw(st.lists(row, min_size=n, max_size=n)))
    surrogate = surrogate_matrix(rankings(matrix))
    for alg in ("seqpick", "roundrobin", "randdecl"):
        ordinal = allocate(matrix, alg, model=Model.ORDINAL, seed=seed)
        assert ordinal == allocate(surrogate, alg, seed=seed) == allocate(matrix, alg, seed=seed)


def test_every_algorithm_outputs_partition():
    rng = np.random.default_rng(53)
    for _ in range(20):
        m = int(rng.integers(4, 12))
        inst = uniform_instance(rng, 3, m)
        for alg in ("seqpick", "roundrobin", "dc3", "randdecl"):
            alloc = allocate(inst, alg, seed=7)
            assert alloc.check_partition(m) == [], alg
