"""Exact and bounded maxmin-share computation.

An agent's maxmin share is the smallest achievable maximum bundle cost over
all n-partitions of the items, measured with the agent's own cost row. For
n >= 2 the exact solver is a depth-first branch-and-bound over
item-to-bundle assignments: items in descending cost order, the first
incumbent the largest load of a longest-processing-time (LPT) greedy or, at
n >= 3 where it is lower, that of Karmarkar-Karp's largest differencing
(Korf, IJCAI 2009) slackened against rounding, and at each node the bundles
tried in index order, each only when the item keeps it below the incumbent
and no earlier bundle has the same load. It cuts a node with one bound of
bin completion (Korf, IJCAI 2009): an open bundle, one the smallest item
still fits under the incumbent, can take no more of the items left than its
fit, and the fits must add up to the items left. At n = 2 to 4, over the
last _FILL_ITEMS items, the fit is the largest subset sum of those items
within the bundle's room, read from sorted tables built once per search;
elsewhere it is the room itself, and the bound runs only where a bundle has
closed or the incumbent has dropped. It never runs at the last item's node,
where it could cut nothing the admission test keeps; that node places the
item in a loop of its own. Its rounding slack keeps every leaf the search
admits, so the bound decides how many nodes are entered, never the value,
witness or method. Nor does a start below LPT's load change what the search
returns: from any incumbent above the optimum it admits the same last leaf.

The search runs in one of two modes. mms_exact's default finds the
witness: the last leaf admitted, ties included, which is the partition
`choremms mms` prints. mms_value, which mms_table and so evaluate, the
batch and the allocate report use, asks for the value alone: the same
search without that bookkeeping, which returns from a node as soon as its
largest load has reached the incumbent, since every leaf under it then
ties at best, and settles the last item in closed form. Only the witness
mode walks those ties, because the leaf it reports may lie among them;
the value is the same, bit for bit.

Exact MMS is NP-hard, so rows of more than CAP items are refused; for them
only mms_bounds is available: the lower bound and LPT's load, whichever
incumbent the search starts from, both floats. mms_exact, mms_value and
mms_bounds refuse an agent count below 1 and then, before the cap, a row
that is no valid cost row by `model.row_problems`, the rule
`model.validate` applies to every row of an instance, with its first
message. Every step after the refusals reads the row's costs as Python
floats, so a row of numpy scalars or of ints gets the share its float row
gets, as the CLI's rows do.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heapreplace
from operator import add
from typing import Optional, Sequence

from .model import (
    Allocation,
    AgentEval,
    CostMatrix,
    EvalReport,
    descending,
    ratio_of,
    row_problems,
)

# the most items an exact share is computed for
CAP = 20

# The branch-and-bound's fit tables hold the subset sums of the last
# _FILL_ITEMS items (2**_FILL_ITEMS sums at most). 8 and 9 measured alike at
# the eval benchmark's sizes; 6 and 7 left more nodes at (3, 14), and 10
# cost more to build than it saved at (4, 13).
_FILL_ITEMS = 8


class MmsCapError(ValueError):
    """Raised when an exact computation is refused for being too large."""


@dataclass(frozen=True)
class MmsResult:
    value: float
    witness: Optional[Allocation]  # None from the search for the value alone
    method: str  # "exact" or "bound-only"


def _sorted_bundles(bundles: list[set[int]], row: Sequence[float]) -> Allocation:
    # descending bundle cost, ties by item content, for determinism
    keyed = sorted(
        bundles,
        key=lambda b: (-sum(row[j] for j in b), tuple(sorted(b))),
    )
    return Allocation.from_lists(keyed)


def _bracket(
    row: Sequence[float], n: int
) -> tuple[list[int], float, tuple[float, list[set[int]]]]:
    """Where the exact search starts: the positive items in `descending`
    order, the lower bound max(total/n, max item), and LPT's largest load
    and partition of those items."""
    items = [j for j in descending(row) if row[j] > 0]
    lower = max(sum(row) / n, row[items[0]] if items else 0.0)
    return items, lower, _lpt(items, row, n)


def _lpt(items: list[int], row: Sequence[float], n: int) -> tuple[float, list[set[int]]]:
    """Greedy longest-processing-time partition: feasible, not optimal."""
    loads = [0.0] * n
    bundles: list[set[int]] = [set() for _ in range(n)]
    for j in items:  # items arrive in descending cost order
        b = loads.index(min(loads))
        loads[b] += row[j]
        bundles[b].add(j)
    return max(loads), bundles


def _kk_start(costs: list[float], n: int) -> float:
    """A first incumbent just above the largest load of the multi-way
    largest differencing partition (Karmarkar-Karp; Korf, IJCAI 2009) of
    the descending `costs`: while two partial partitions are left, the two
    whose largest and smallest loads differ most are joined, the largest
    loads of one with the smallest of the other.

    The search sums that partition's bundles in its own order: each sum
    adds at most CAP items, so the two differ by less than CAP * 2**-52 of
    the load, which the factor 1 + 1e-12 covers. On subnormal loads, which
    add up exactly, the factor adds nothing, and nextafter keeps the start
    above the partition there. The search then admits that partition or a
    better one, and from any start above the optimum it admits the same
    final leaf: the leaves a lower start no longer admits lie at or above
    it."""
    # each partial partition's loads ascending, keyed by minus their spread;
    # the costs come sorted, so the list is a heap already, and k keeps the
    # loads out of the comparison
    heap = [(-c, k, [0.0] * (n - 1) + [c]) for k, c in enumerate(costs)]
    while len(heap) > 1:
        _, _, a = heappop(heap)
        _, k, b = heap[0]
        b.reverse()
        loads = sorted(map(add, a, b))
        heapreplace(heap, (loads[0] - loads[-1], k, loads))
    return math.nextafter(heap[0][2][-1] * (1 + 1e-12), math.inf)


def _refuse_bad_input(row: Sequence[float], n: int) -> None:
    """The input refusals mms_exact (so mms_value) and mms_bounds share: an
    agent count below 1, then the first of `model.row_problems`, a row's as
    `validate` words it for row 1."""
    if n < 1:
        raise ValueError("agent count must be >= 1")
    problems = row_problems(row)
    if problems:
        raise ValueError(problems[0])


def mms_exact(row: Sequence[float], n: int, *, witness: bool = True) -> MmsResult:
    """Minimize the maximum bundle cost over all n-partitions of the row.

    The search's first incumbent is LPT's largest load or, at n >= 3 where
    it is lower, _kk_start's; the value, witness and method are those of
    the search started from LPT's load. With witness=False, as mms_value
    asks, the search is after the value alone: it skips the subtrees that
    hold only ties (see _branch_and_bound), the result's witness is None,
    and the value is the same, bit for bit.

    Raises MmsCapError for more than CAP items: use mms_bounds instead.
    """
    m = len(row)
    _refuse_bad_input(row, n)
    if m > CAP:
        raise MmsCapError(
            f"{m} items exceeds the exact-computation cap of {CAP}; use mms_bounds"
        )
    row = tuple(map(float, row))
    if n == 1:
        whole = Allocation.from_lists([set(range(m))]) if witness else None
        return MmsResult(float(sum(row)), whole, "exact")

    items, lower, (best_val, bundles) = _bracket(row, n)
    best_assign: list[int] | None = None
    if best_val > lower:
        costs = [row[j] for j in items]
        # KK's start runs at n >= 3 only, as the fit tables at n <= 4 only:
        # on the eval benchmark's (2, 16) rows it saved 8 % of the nodes,
        # less than KK's own cost, and the rows ran 6-12 % slower.
        start = min(best_val, _kk_start(costs, n)) if n >= 3 else best_val
        best_val, best_assign = _branch_and_bound(costs, n, m, start, lower, witness)
    if not witness:
        return MmsResult(best_val, None, "exact")

    if best_assign is not None:
        bundles = [set() for _ in range(n)]
        for idx, b in enumerate(best_assign):
            bundles[b].add(items[idx])
    # zero-cost items never move the max; park them in the lightest bundle,
    # or the last one when LPT gave each positive item a bundle of its own
    zeros = [j for j in range(m) if row[j] == 0]
    if zeros:
        loads = [sum(row[j] for j in b) for b in bundles]
        bundles[loads.index(min(loads)) if len(items) > n else -1].update(zeros)
    return MmsResult(best_val, _sorted_bundles(bundles, row), "exact")


def mms_value(row: Sequence[float], n: int) -> float:
    """The exact maxmin share alone: mms_exact's value, bit for bit, with
    its refusals, from the search without its witness."""
    return mms_exact(row, n, witness=False).value


def _branch_and_bound(
    costs: list[float], n: int, m: int, best_val: float, lower: float, witness: bool
) -> tuple[float, list[int] | None]:
    """Search assignments of the descending `costs` to n bundles for a
    maximum load below the incumbent `best_val`, stopping at one <= `lower`.
    `best_val` starts at LPT's load or a lower _kk_start.

    Returns the final incumbent and, with `witness`, the assignment of the
    last leaf the search admitted (None when no leaf beat the start
    incumbent, and always without `witness`). A leaf is admitted when it
    beats the incumbent or, below a node where a bundle already holds
    exactly the incumbent, ties it.

    Without `witness` the search walks no ties. When a leaf lowers the
    incumbent to B, every node on the path to it has a largest load of at
    most B, so a node whose largest load has reached the incumbent holds
    only leaves that tie it at best. The search returns from such a node
    as soon as a child brings the incumbent down to it (no node is entered
    with one), and settles the last item in closed form: the leaf of the
    lightest bundle, whose value the witness search's loop settles on. The
    incumbent takes the same values in the same order either way, so the
    value is the same, bit for bit.

    Nodes are cut by the fit bound: the open bundles' fits must add up to
    the items left, where a fit is a bundle's room below the incumbent or,
    at n <= 4 with at most _FILL_ITEMS items left, the largest subset sum
    of those items within it. It never cuts a node under which a leaf would
    be admitted, so it decides how many nodes are entered, never which
    leaves are admitted.
    """
    last = len(costs) - 1
    smallest = costs[-1]
    rest = costs + [0.0]  # rest[idx]: the cost of items[idx:]
    for idx in range(last - 1, -1, -1):
        rest[idx] += rest[idx + 1]
    # fills[idx]: the sorted subset sums of items[idx:] for the last
    # _FILL_ITEMS items, None above them. Each table is the next one's sorted
    # run merged with that run shifted by the item. Tables are built at n = 2
    # to 4 only. At n = 5 and 6 they lost to the fit of the room alone:
    # (5, 12) eval rows ran at 0.7x the speed and (6, 12) rows at 0.6x, and
    # a correlated 6x20 row went 7.9 -> 11.7 s, while a correlated 5x20 row
    # gained (1.6 -> 0.3 s).
    fills: list[list[float] | None] = [None] * len(costs)
    if n <= 4:
        sums = [0.0]
        for idx in range(last, max(last - _FILL_ITEMS, -1), -1):
            c = costs[idx]
            sums = sorted(sums + [x + c for x in sums])
            fills[idx] = sums
    # Rounding slack of the bound below, slack = margin * best_val. Each sum
    # it uses (a load, rest[idx], the fits) adds at most m + n floats, with
    # partial sums below about n * best_val, so it is off its exact value by
    # less than e = (m + n) * n * best_val * 2**-53; the slack allows sixteen
    # such errors. A leaf puts a subset S of items[idx:] on an open bundle,
    # summed after the load in the search's order to below best_val. Without
    # a table the fit is the room best_val - load itself, which holds S up to
    # that sum's rounding. With one, the table sums S in another order. Each
    # of the two sums adds the at most m items of S to partial sums below
    # best_val, so the table's S exceeds the exact room by less than
    # 2 * m * best_val * 2**-53 < 2e, and the float key best_val + slack -
    # load is off by two roundings: the key never drops a subset a leaf can
    # hold. Either way the fits fall short of rest[idx]'s exact value by less
    # than e in all, their n additions and rest[idx] itself are off by at
    # most e each, so the fits of a node that holds a leaf never add up to
    # less than rest[idx] minus the slack.
    margin = 8 * (m + n) * n * 2.0**-52
    assign = [0] * len(costs)
    best_assign: list[int] | None = None
    loads = [0.0] * n
    bundles = range(n)
    first = loads.index  # first(load) < b: an earlier bundle has that load
    proven = False

    def dfs(idx: int, cur_max: float, checked: float) -> None:
        nonlocal best_val, best_assign, proven
        if idx == last:
            if not witness:
                # the value the loop below settles on: the lightest bundle's leaf
                leaf = min(loads) + smallest
                if leaf < cur_max:
                    leaf = cur_max
                if leaf < best_val:
                    best_val = leaf
                    proven = leaf <= lower
                return
            # the last item: each admissible bundle ends a leaf, which
            # becomes the incumbent even when it only ties best_val
            for b in bundles:
                load = loads[b]
                new_load = load + smallest
                if new_load >= best_val:
                    continue  # closed
                if first(load) < b:
                    continue  # the leaf of an equal earlier bundle
                assign[last] = b
                best_val = new_load if new_load > cur_max else cur_max
                best_assign = assign.copy()
                if best_val <= lower:
                    proven = True
                    return
            return
        # The bound never runs at the last item's node: an open bundle alone
        # has room best_val - load > smallest for the last item, so it cuts
        # there only when every bundle is closed, and then the loop above
        # admits nothing.
        fill = fills[idx]
        if fill is not None or checked != best_val:
            # Fit bound (bin completion's, Korf 2009): a bundle is closed when
            # even the smallest item lifts it to best_val, so the admission
            # test below refuses it every item. An open bundle takes from
            # items[idx:] at most its fit: its room or, from its table, the
            # largest subset sum within the room. A leaf under this node
            # places all of items[idx:], so the fits must add up to rest[idx].
            # Without a table, an item put in a bundle that stays open takes
            # as much off the fits as off the rest, so the bound runs only
            # where a bundle has closed or best_val has dropped since it last
            # ran at `checked` (0.0: run). A node with a table always runs it;
            # its children have tables too, or are the last item's node.
            slack = margin * best_val
            key = best_val + slack
            fits = 0.0
            for load in loads:
                if load + smallest < best_val:
                    if fill is None:
                        fits += best_val - load
                    else:
                        fits += fill[bisect_right(fill, key - load) - 1]
            if fits < rest[idx] - slack:
                return
            checked = best_val
        c = costs[idx]
        for b in bundles:
            load = loads[b]
            new_load = load + c
            if new_load >= best_val:
                continue
            if first(load) < b:
                continue  # bundles with equal load are interchangeable
            assign[idx] = b
            loads[b] = new_load
            dfs(
                idx + 1,
                new_load if new_load > cur_max else cur_max,
                0.0 if new_load + smallest >= best_val else checked,
            )
            loads[b] = load
            # without a witness, a node whose largest load the incumbent has
            # come down to holds no better leaf
            if proven or not witness and cur_max >= best_val:
                return

    dfs(0, 0.0, 0.0)
    return best_val, best_assign


def mms_bounds(row: Sequence[float], n: int) -> tuple[float, float]:
    """The bracket of the exact search: lower = max(total/n, max item),
    upper = LPT greedy's largest load (the search may start below it, from
    _kk_start's value, but this returns LPT's)."""
    _refuse_bad_input(row, n)
    _, lower, (upper, _) = _bracket(tuple(map(float, row)), n)
    return lower, max(upper, lower)


def mms_table(matrix: CostMatrix) -> list[float]:
    """Every agent's exact maxmin share, by mms_value: the search for the
    value alone, which walks no ties."""
    return [mms_value(matrix.row(i), matrix.n) for i in range(matrix.n)]


def evaluate(
    allocation: Allocation,
    matrix: CostMatrix,
    table: Optional[Sequence[float]] = None,
) -> EvalReport:
    """Cost / exact MMS / ratio per agent, plus the max ratio.

    `table` is `mms_table(matrix)`, the agents' shares, when the caller
    already has it, so several allocations of one instance share one set of
    shares; without it the shares are solved here by mms_value, and a row
    of more than CAP items raises MmsCapError.
    """
    problems = allocation.check_partition(matrix.m)
    if problems:
        raise ValueError("not a partition: " + "; ".join(problems))
    if table is None:
        table = mms_table(matrix)
    per_agent = []
    for i in range(matrix.n):
        cost = matrix.cost_of(i, allocation.bundles[i])
        mms = table[i]
        per_agent.append(AgentEval(cost=cost, mms=mms, ratio=ratio_of(cost, mms)))
    return EvalReport(tuple(per_agent), max(a.ratio for a in per_agent))
