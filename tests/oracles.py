"""Independent brute-force oracles used to pin expected values.

These call none of the library's algorithms, searches or helpers; they
take from it only its data types (`CostMatrix`, `Allocation`, `MmsResult`,
`Model`), the cap and its error. The maxmin-share oracle enumerates every
set partition via restricted-growth assignments and takes the min-max
directly, the serial-pick oracle rescans every remaining item at every
pick, and the deviation-search oracle builds and validates every reported
matrix from scratch, with no cache. The randdecl reference is the earlier,
unhoisted body of the algorithm, which the faster one must match draw for
draw, the Monte-Carlo reference takes the estimator's batched draws but
deals each trial with its own scan, the exact randdecl expectation
reference walks every landing item by item in plain Python, the ranking
reference sorts on an explicit (-cost, index) key, and the label reference
takes each agent's top items from it. The mms_exact reference is the search
as it was before the closed-bundle bound, with its own LPT start and bundle
order, which the faster one must match in value, witness and method.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from choremms.mms import DEFAULT_CAP, MmsCapError, MmsResult
from choremms.model import Allocation, CostMatrix, Model


def mms_bruteforce(row: Sequence[float], n: int) -> float:
    """Min over all partitions into at most n bundles of the max bundle cost."""
    m = len(row)
    if n == 1:
        return float(sum(row))
    best = float(sum(row))
    loads = [0.0] * n

    def rec(j: int, used: int) -> None:
        nonlocal best
        if j == m:
            worst = max(loads[:used]) if used else 0.0
            if worst < best:
                best = worst
            return
        # restricted growth: item j joins an existing bundle or opens the next
        limit = min(used + 1, n)
        for b in range(limit):
            loads[b] += row[j]
            rec(j + 1, max(used, b + 1))
            loads[b] -= row[j]

    rec(0, 0)
    return best


def lpt_reference(
    items: Sequence[int], row: Sequence[float], n: int
) -> tuple[float, list[set[int]]]:
    """(largest load, bundles) when each of `items` in turn joins the
    bundle of least load, the first such bundle on a tie."""
    loads = [0.0] * n
    bundles: list[set[int]] = [set() for _ in range(n)]
    for j in items:
        b = loads.index(min(loads))
        loads[b] += row[j]
        bundles[b].add(j)
    return max(loads), bundles


def sorted_bundles_reference(bundles: Sequence[set[int]], row: Sequence[float]) -> Allocation:
    """The bundles by descending cost, tied costs by their items in
    ascending order, compared as lists."""
    keyed = sorted(bundles, key=lambda b: (-sum(row[j] for j in b), sorted(b)))
    return Allocation.from_lists(keyed)


def mms_exact_reference(row: Sequence[float], n: int, cap: int = DEFAULT_CAP) -> MmsResult:
    """mms_exact as it was before the closed-bundle bound: the same search
    with no bound, a recursive leaf and a set of the loads seen per node."""
    m = len(row)
    if n < 1:
        raise ValueError("agent count must be >= 1")
    if any(c < 0 for c in row):
        raise ValueError("costs must be nonnegative")
    if m > cap:
        raise MmsCapError(
            f"{m} items exceeds the exact-computation cap of {cap}; use mms_bounds"
        )
    total = float(sum(row))
    if n == 1:
        return MmsResult(total, Allocation.from_lists([set(range(m))]), "exact")

    items = sorted((j for j in range(m) if row[j] > 0), key=lambda j: (-row[j], j))
    zeros = [j for j in range(m) if row[j] == 0]

    if len(items) <= n:
        # one positive item per bundle is optimal
        bundles: list[set[int]] = [set() for _ in range(n)]
        for k, j in enumerate(items):
            bundles[k].add(j)
        bundles[-1].update(zeros)
        value = row[items[0]] if items else 0.0
        return MmsResult(float(value), sorted_bundles_reference(bundles, row), "exact")

    lower = max(total / n, max(row))
    best_val, lpt_bundles = lpt_reference(items, row, n)
    costs = [row[j] for j in items]
    assign = [0] * len(items)
    best_assign: list[int] | None = None
    if best_val <= lower:
        best_assign = None  # LPT already optimal, keep its bundles
    loads = [0.0] * n
    proven = False

    def dfs(idx: int, cur_max: float) -> None:
        nonlocal best_val, best_assign, proven
        if proven:
            return
        if idx == len(items):
            best_val = cur_max
            best_assign = assign.copy()
            if best_val <= lower:
                proven = True
            return
        c = costs[idx]
        seen: set[float] = set()
        for b in range(n):
            load = loads[b]
            if load in seen:
                continue  # bundles with equal load are interchangeable
            seen.add(load)
            new_load = load + c
            if new_load >= best_val:
                continue
            loads[b] = new_load
            assign[idx] = b
            dfs(idx + 1, new_load if new_load > cur_max else cur_max)
            loads[b] = load
            if proven:
                return

    if best_val > lower:
        dfs(0, 0.0)

    if best_assign is None:
        bundles = [set(b) for b in lpt_bundles]
    else:
        bundles = [set() for _ in range(n)]
        for idx, b in enumerate(best_assign):
            bundles[b].add(items[idx])
    # zero-cost items never move the max; park them in the lightest bundle
    if zeros:
        lightest = min(range(n), key=lambda k: (sum(row[j] for j in bundles[k]), k))
        bundles[lightest].update(zeros)
    return MmsResult(float(best_val), sorted_bundles_reference(bundles, row), "exact")


def rank_reference(row: Sequence[float]) -> list[int]:
    """Item indices by descending cost, ties by ascending index, sorted on
    the explicit (-cost, index) key."""
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def label_sets_reference(matrix: CostMatrix) -> tuple[frozenset[int], ...]:
    """Each agent's first floor(n * sqrt(log2 n)) items (at most m) of its
    reference ranking."""
    n = matrix.n
    k = min(math.floor(n * math.sqrt(math.log2(n))), matrix.m)
    return tuple(frozenset(rank_reference(row)[:k]) for row in matrix.costs)


def serial_pick_reference(matrix, sequence: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Bundles when each agent of `sequence` in turn takes the remaining
    item that is smallest by (its cost, index)."""
    costs = matrix.costs
    remaining = set(range(len(costs[0])))
    bundles: list[set[int]] = [set() for _ in costs]
    for i in sequence:
        j = min(remaining, key=lambda t: (costs[i][t], t))
        bundles[i].add(j)
        remaining.remove(j)
    return tuple(frozenset(b) for b in bundles)


def randdecl_reference(
    matrix: CostMatrix,
    seed: int | np.random.Generator,
    label_override: Optional[tuple[int, frozenset[int]]] = None,
) -> Allocation:
    """randdecl as it was before its label profile was hoisted: the labels
    are rebuilt on every call and the random draws indexed as numpy values."""
    n, m = matrix.n, matrix.m
    if n < 2:
        raise ValueError("randdecl needs at least 2 agents")
    labels = list(label_sets_reference(matrix))
    if label_override is not None:
        agent, declared = label_override
        labels[agent] = declared
    rng = np.random.default_rng(seed)
    landing = rng.integers(0, n, size=m)
    pooled = [j for j in range(m) if j in labels[landing[j]]]
    bundles: list[set[int]] = [set() for _ in range(n)]
    pool_set = set(pooled)
    for j in range(m):
        if j not in pool_set:
            bundles[int(landing[j])].add(j)
    deal = rng.permutation(len(pooled))
    start = int(rng.integers(0, n))
    for t, idx in enumerate(deal):
        bundles[(start + t) % n].add(pooled[int(idx)])
    return Allocation.from_lists(bundles)


def mc_expected_cost_reference(
    matrix: CostMatrix,
    agent: int,
    seed: int,
    trials: int,
    label_override: Optional[tuple[int, frozenset[int]]] = None,
) -> tuple[float, float]:
    """(mean, stderr) of the agent's cost over mc_expected_cost's trials:
    trial 0 is randdecl_reference drawing from the `SeedSequence(seed)`
    stream, and the rest take the same batched draws from it, each dealt
    here by scanning its permutation for the pooled items."""
    n, m = matrix.n, matrix.m
    labels = list(label_sets_reference(matrix))
    if label_override is not None:
        liar, declared = label_override
        labels[liar] = declared
    row = matrix.costs[agent]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    first = randdecl_reference(matrix, rng, label_override).bundles[agent]
    costs = [sum(row[j] for j in sorted(first))]
    rest = trials - 1
    landings = rng.integers(0, n, size=(rest, m), dtype=np.min_scalar_type(n - 1))
    perms = rng.permuted(np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), (rest, 1)), axis=1)
    starts = rng.integers(0, n, size=rest)
    for t in range(rest):
        landing = landings[t].tolist()
        pooled = [j for j in perms[t].tolist() if j in labels[landing[j]]]
        start = int(starts[t])
        mine = [j for j in range(m) if landing[j] == agent and j not in pooled]
        mine += [j for k, j in enumerate(pooled) if (start + k) % n == agent]
        costs.append(sum(row[j] for j in sorted(mine)))
    arr = np.array(costs)
    if trials == 1:
        return float(arr[0]), 0.0  # one trial: no spread to estimate
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(trials))


def enum_expected_cost_reference(matrix: CostMatrix, agent: int, labels, gather) -> float:
    """enum_expected_cost as a loop over the n^m landings in `product`
    order: per landing, the agent's kept cost plus 1/n of the pooled cost,
    each summed item by item, added to a running total."""
    n, m = matrix.n, matrix.m
    row = matrix.row(agent)
    total = 0.0
    count = 0
    for landing in product(range(n), repeat=m):
        pooled_cost = 0.0
        kept = 0.0
        for j in range(m):
            if gather(j, landing[j], labels):
                pooled_cost += row[j]
            elif landing[j] == agent:
                kept += row[j]
        total += kept + pooled_cost / n
        count += 1
    return total / count


def deviation_search_reference(
    algorithm,
    matrix: CostMatrix,
    agent: int,
    model: Model,
    include_grid: bool,
    grid_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    tol: float = 1e-9,
) -> tuple[float, float, str, bool]:
    """(truthful cost, best deviation cost, deviation, profitable) as
    sp_check_ordinal reports them, with every misreport's matrix rebuilt by
    `CostMatrix.from_rows` and run afresh.

    Misreports are tried in sp_check_ordinal's order (rankings in
    lexicographic order, then grid factors), and the first strictly cheaper
    one is the one described.
    """
    m = matrix.m
    true_row = matrix.costs[agent]

    def by_rank(order, values):
        row = [0.0] * m
        for pos, j in enumerate(order):
            row[j] = values[pos]
        return row

    ranks = [float(m - pos) for pos in range(m)]
    if model is Model.ORDINAL:
        truthful_rows = [by_rank(rank_reference(row), ranks) for row in matrix.costs]
    else:
        truthful_rows = [list(row) for row in matrix.costs]

    def true_cost_with(row) -> float:
        rows = [list(r) for r in truthful_rows]
        rows[agent] = list(row)
        bundle = algorithm(CostMatrix.from_rows(rows)).bundles[agent]
        return sum(true_row[j] for j in bundle)

    truthful = true_cost_with(truthful_rows[agent])
    misreports = []
    if model in (Model.ORDINAL, Model.CARDINAL):
        values = ranks if model is Model.ORDINAL else sorted(true_row, reverse=True)
        for perm in permutations(range(m)):
            misreports.append((f"ranking {tuple(j + 1 for j in perm)}", by_rank(perm, values)))
    if include_grid and model in (Model.CARDINAL, Model.PUBLIC_RANKING):
        true_order = rank_reference(true_row)
        for factors in product(grid_factors, repeat=m):
            row = [f * c for f, c in zip(factors, true_row)]
            if model is Model.PUBLIC_RANKING and any(
                row[a] < row[b] for a, b in zip(true_order, true_order[1:])
            ):
                continue
            misreports.append((f"grid factors {factors}", row))
    best, desc = truthful, "truthful"
    for label, row in misreports:
        cost = true_cost_with(row)
        if cost < best:
            best, desc = cost, label
    if model is Model.PUBLIC_RANKING and not include_grid:
        desc = "none (ordinal report channel closed under public rankings)"
    return truthful, best, desc, best < truthful - tol
