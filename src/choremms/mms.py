"""Exact and bounded maxmin-share computation.

An agent's maxmin share is the smallest achievable maximum bundle cost over
all n-partitions of the items, measured with the agent's own cost row. For
n >= 3 the exact solver is a branch-and-bound over item-to-bundle
assignments (items in descending cost order, duplicate-load symmetry
skipped, incumbent seeded by a longest-processing-time greedy). It cuts a
node with the closed-bundle bound of bin completion (Korf, IJCAI 2009): a
bundle that not even the smallest item fits under the incumbent is closed,
and the items left must fit in the room the open bundles have below the
incumbent. For n = 2 it is an exact subset-sum scan: numpy sums both
bundles of every two-way split, in blocks, the way the branch-and-bound
sums them, and picks the split that search would end on (value, witness
and method alike). Exact MMS is NP-hard, so item counts are capped; above
the cap only the cheap lower/upper bounds are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Allocation, AgentEval, CostMatrix, EvalReport, ratio_of

DEFAULT_CAP = 20


class MmsCapError(ValueError):
    """Raised when an exact computation is refused for being too large."""


@dataclass(frozen=True)
class MmsResult:
    value: float
    witness: Allocation
    method: str  # "exact" or "bound-only"


def _sorted_bundles(bundles: list[set[int]], row: Sequence[float]) -> Allocation:
    # descending bundle cost, ties by item content, for determinism
    keyed = sorted(
        bundles,
        key=lambda b: (-sum(row[j] for j in b), tuple(sorted(b))),
    )
    return Allocation.from_lists(keyed)


def _lpt(items: list[int], row: Sequence[float], n: int) -> tuple[float, list[set[int]]]:
    """Greedy longest-processing-time partition: feasible, not optimal."""
    loads = [0.0] * n
    bundles: list[set[int]] = [set() for _ in range(n)]
    for j in items:  # items arrive in descending cost order
        b = min(range(n), key=lambda k: (loads[k], k))
        loads[b] += row[j]
        bundles[b].add(j)
    return max(loads), bundles


def mms_exact(row: Sequence[float], n: int, cap: int = DEFAULT_CAP) -> MmsResult:
    """Minimize the maximum bundle cost over all n-partitions of the row.

    Raises MmsCapError for more than `cap` items: use mms_bounds instead.
    """
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
        return MmsResult(float(value), _sorted_bundles(bundles, row), "exact")

    lower = max(total / n, max(row))
    best_val, lpt_bundles = _lpt(items, row, n)
    best_assign: list[int] | None = None
    if best_val > lower:
        costs = [row[j] for j in items]
        if n == 2:
            best_val, best_assign = _two_way_scan(costs, best_val, lower)
        else:
            best_val, best_assign = _branch_and_bound(costs, n, m, best_val, lower)

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
    return MmsResult(float(best_val), _sorted_bundles(bundles, row), "exact")


def _branch_and_bound(
    costs: list[float], n: int, m: int, best_val: float, lower: float
) -> tuple[float, list[int] | None]:
    """Search assignments of the descending `costs` to n bundles for a
    maximum load below the incumbent `best_val`, stopping at one <= `lower`.

    Returns the final incumbent and the assignment of the last leaf the
    search admitted (None when no leaf beat the start incumbent). A leaf is
    admitted when it beats the incumbent or, below a node where a bundle
    already holds exactly the incumbent, ties it.
    """
    last = len(costs) - 1
    smallest = costs[-1]
    rest = costs + [0.0]  # rest[idx]: the cost of items[idx:]
    for idx in range(last - 1, -1, -1):
        rest[idx] += rest[idx + 1]
    # Rounding margin of the bound below. Each sum it uses (a load, rest[idx],
    # the room) adds at most m + n floats, with partial sums below about
    # n * best_val, so it is off its exact value by less than (m + n) * n *
    # best_val * 2**-53. The bound weighs a few such errors; margin allows
    # sixteen, so it never cuts a node whose exact room would fit the rest.
    margin = 8 * (m + n) * n * 2.0**-52
    assign = [0] * len(costs)
    best_assign: list[int] | None = None
    loads = [0.0] * n
    proven = False

    def dfs(idx: int, cur_max: float, checked: float) -> None:
        nonlocal best_val, best_assign, proven
        # Closed-bundle bound: a bundle is closed when even the smallest
        # item lifts it to best_val, so the admission test below refuses it
        # every item. A leaf under this node fits items[idx:] into the open
        # bundles' room; without it, nothing here can become the incumbent.
        # An item put in a bundle that stays open takes as much off the room
        # as off the rest, so the bound runs only where a bundle has closed
        # or best_val has dropped since it last ran at `checked` (0.0: run).
        if checked != best_val:
            room = 0.0
            for load in loads:
                if load + smallest >= best_val:
                    continue  # closed
                room += best_val - load
            if room < rest[idx] - margin * best_val:
                return
            checked = best_val
        c = costs[idx]
        for b in range(n):
            load = loads[b]
            if load in loads[:b]:
                continue  # bundles with equal load are interchangeable
            new_load = load + c
            if new_load >= best_val:
                continue
            assign[idx] = b
            if idx == last:
                # the last item: each admissible bundle ends a leaf, which
                # becomes the incumbent even when it only ties best_val
                best_val = new_load if new_load > cur_max else cur_max
                best_assign = assign.copy()
                if best_val <= lower:
                    proven = True
                    return
                continue
            loads[b] = new_load
            dfs(
                idx + 1,
                new_load if new_load > cur_max else cur_max,
                0.0 if new_load + smallest >= best_val else checked,
            )
            loads[b] = load
            if proven:
                return

    dfs(0, 0.0, 0.0)
    return best_val, best_assign


# The two-way scan enumerates splits in blocks of 2**_BLOCK_BITS: the last
# items vary within a block, the ones before them are fixed per block.
_BLOCK_BITS = 14


def _two_way_scan(
    costs: list[float], best_val: float, lower: float
) -> tuple[float, list[int] | None]:
    """What _branch_and_bound returns at n=2, from a scan of every split.

    That search puts item 0 in bundle 0 and meets the splits in
    lexicographic order of their assignments, bundle 0 first. It stops at
    the first split <= `lower`; otherwise it ends on the first split of
    least maximum load, or on a tie it admits after that (_last_tie).
    Blocks are scanned in that order, and one whose fixed items already
    load a bundle to the incumbent is skipped: none of its splits beats it.
    """
    k = len(costs)
    bits = min(_BLOCK_BITS, k - 1)
    fixed = k - 1 - bits  # items 1..fixed are set per block
    size = 1 << bits
    best_assign: list[int] | None = None
    for block in range(1 << fixed):
        head = [0] + [(block >> (fixed - t)) & 1 for t in range(1, fixed + 1)]
        loads = [0.0, 0.0]
        for b, c in zip(head, costs):
            loads[b] += c
        if max(loads) >= best_val:
            continue
        # Both loads of every split in the block, summed as the search sums
        # them: the fixed items' load, then the block's items one at a time
        # in order. Doubling puts item fixed+1+t on bit t of the index (set:
        # bundle 1), so the search meets the indices in bit-reversed order.
        load0 = np.empty(size)
        load1 = np.empty(size)
        load0[0], load1[0] = loads
        width = 1
        for c in costs[fixed + 1 :]:
            load0[width : 2 * width] = load0[:width]
            np.add(load1[:width], c, out=load1[width : 2 * width])
            load0[:width] += c
            width *= 2
        worst = np.maximum(load0, load1)
        least = float(worst.min())
        if least <= lower:
            hit = _first_in_search_order(np.flatnonzero(worst <= lower), bits)
            return float(worst[hit]), head + [(hit >> t) & 1 for t in range(bits)]
        if least < best_val:
            best_val = least
            hit = _first_in_search_order(np.flatnonzero(worst == least), bits)
            best_assign = head + [(hit >> t) & 1 for t in range(bits)]
    if best_assign is not None:
        best_assign = _last_tie(costs, best_assign, best_val)
    return best_val, best_assign


def _first_in_search_order(hits: np.ndarray, bits: int) -> int:
    """The index among `hits` whose bit-reversed value is smallest."""
    order = np.zeros_like(hits)
    for t in range(bits):
        order |= ((hits >> t) & 1) << (bits - 1 - t)
    return int(hits[np.argmin(order)])


def _last_tie(costs: list[float], assign: list[int], best_val: float) -> list[int]:
    """The last leaf the two-bundle search admits after `assign`, its first
    split of load `best_val`.

    Backtracking along `assign`, the search tries bundle 1 for each item d
    that `assign` put in bundle 0. That branch admits a leaf, a tie, only
    if bundle 0 already holds exactly best_val (item d was absorbed in
    float: bundle 0 now refuses every item) and bundle 1 takes item d and
    every item after it staying below best_val. The shallowest such d is
    admitted last.
    """
    loads = [0.0, 0.0]
    for d, b in enumerate(assign):
        if b == 0 and loads[0] == best_val:
            tail = loads[1]
            for c in costs[d:]:
                tail += c
            if tail < best_val:
                return assign[:d] + [1] * (len(assign) - d)
        loads[b] += costs[d]
    return assign


def mms_bounds(row: Sequence[float], n: int) -> tuple[float, float]:
    """Cheap bracket: lower = max(total/n, max item), upper = LPT greedy."""
    if n < 1:
        raise ValueError("agent count must be >= 1")
    m = len(row)
    total = float(sum(row))
    lower = max(total / n, max(row) if m else 0.0)
    items = sorted(range(m), key=lambda j: (-row[j], j))
    upper, _ = _lpt(items, row, n)
    return lower, max(upper, lower)


def mms_table(matrix: CostMatrix, cap: int = DEFAULT_CAP) -> list[MmsResult]:
    """Exact MMS for every agent of the instance."""
    return [mms_exact(matrix.row(i), matrix.n, cap=cap) for i in range(matrix.n)]


def evaluate(
    allocation: Allocation,
    matrix: CostMatrix,
    cap: int = DEFAULT_CAP,
    table: Optional[Sequence[MmsResult]] = None,
) -> EvalReport:
    """Cost / exact MMS / ratio per agent, plus the max ratio.

    `table` is `mms_table(matrix, cap)` when the caller already has it, so
    several allocations of one instance share one set of shares; without it
    the shares are solved here.
    """
    problems = allocation.check_partition(matrix.m)
    if problems:
        raise ValueError("not a partition: " + "; ".join(problems))
    if table is None:
        table = mms_table(matrix, cap=cap)
    per_agent = []
    for i in range(matrix.n):
        cost = matrix.cost_of(i, allocation.bundles[i])
        mms = table[i].value
        per_agent.append(AgentEval(cost=cost, mms=mms, ratio=ratio_of(cost, mms)))
    return EvalReport(tuple(per_agent), max(a.ratio for a in per_agent))
