"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own search code: the maxmin-share
oracle enumerates every set partition via restricted-growth assignments and
takes the min-max directly, the serial-pick oracle rescans every remaining
item at every pick, and the deviation-search oracle builds and validates
every reported matrix from scratch, with no cache. The randdecl reference
is the earlier, unhoisted body of the algorithm, which the faster one must
match draw for draw.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from choremms.algorithms import declared_labels
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
    seed: int,
    label_override: Optional[tuple[int, frozenset[int]]] = None,
) -> Allocation:
    """randdecl as it was before its label profile was hoisted: the labels
    are rebuilt on every call and the random draws indexed as numpy values."""
    n, m = matrix.n, matrix.m
    if n < 2:
        raise ValueError("randdecl needs at least 2 agents")
    agent, declared = label_override or (0, None)
    labels = declared_labels(matrix, agent, declared)
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

    def order_of(row):
        return sorted(range(m), key=lambda j: (-row[j], j))

    def by_rank(order, values):
        row = [0.0] * m
        for pos, j in enumerate(order):
            row[j] = values[pos]
        return row

    ranks = [float(m - pos) for pos in range(m)]
    if model is Model.ORDINAL:
        truthful_rows = [by_rank(order_of(row), ranks) for row in matrix.costs]
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
        true_order = order_of(true_row)
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
