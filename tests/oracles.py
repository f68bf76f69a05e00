"""Independent brute-force oracles used to pin expected values.

These call none of the library's algorithms, searches or helpers; they
take from it only its data types (`CostMatrix`, `Allocation`,
`MmsResult`, `Model`), the cap and its error, and the two class ratio
pairs behind the randomized witness. The maxmin-share oracle enumerates
every set partition via restricted-growth assignments and takes the
min-max directly, the serial-pick oracle rescans every remaining item at
every pick, and the deviation-search oracle builds and validates every
reported matrix from scratch, with no cache. The randdecl reference is
the earlier, unhoisted body of the algorithm, which the faster one must
match draw for draw, the Monte-Carlo reference takes the estimator's
batched draws but deals each trial with its own scan, the closed-form
reference counts each item's declarations by a membership test per
agent, the exact randdecl expectation reference walks every landing item
by item in plain Python, the ranking reference sorts on an explicit
(-cost, index) key, and the label reference takes each agent's top items
from it. The mms_exact reference is the search as it was before the
closed-bundle bound, with its own LPT start and bundle order, which the
faster one must match in value, witness and method. The witness grid
minimizes those pairs' mix over a fine grid of p instead of at the exact
crossing, and strip_runtime drops the eval CSV's one column that is not
byte-stable. The pick-tree oracle runs the serial-pick oracle once per
strict ranking the agent can report. The cost-row reference tests each
entry on its own, as the rule is worded, with no whole-row shortcut. The
monotonicity move reference moves an entry to every value of a dense
sweep, and `moved_rankings` reads what a check, passed in, tries from
the rows it runs, without the check's own move builder.
"""

from __future__ import annotations

import math
import numbers
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from choremms.mms import CAP, MmsCapError, MmsResult
from choremms.model import Allocation, CostMatrix, Model
from choremms.verify import _class_ratio_pairs

# p spacing of witness_ordinal_rand_grid
WITNESS_GRID_STEP = 1e-6


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


def mms_exact_reference(row: Sequence[float], n: int) -> MmsResult:
    """mms_exact as it was before the closed-bundle bound: the same search
    with no bound, a recursive leaf and a set of the loads seen per node."""
    m = len(row)
    if n < 1:
        raise ValueError("agent count must be >= 1")
    if any(c < 0 for c in row):
        raise ValueError("costs must be nonnegative")
    if m > CAP:
        raise MmsCapError(
            f"{m} items exceeds the exact-computation cap of {CAP}; use mms_bounds"
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


# entries the whole-row test of `model.row_problems` admits no row with:
# invalid ones, and numpy scalars, which the entry loop accepts
ODD_COST_ENTRIES = (
    math.nan,
    math.inf,
    -math.inf,
    -1,
    -0.5,
    True,
    np.bool_(True),
    None,
    "1",
    10**400,
    np.float32(2.5),
    np.int64(3),
)


def row_problems_reference(row: Sequence[float], i: int = 0) -> list[str]:
    """The cost-row rule entry by entry, in `model.row_problems`' words for
    row i + 1: an entry that is a bool or no numbers.Real is non-numeric, a
    real below 0 negative, one whose float is NaN or inf non-finite, and an
    int no float holds too large; a row with none of these whose float sum
    is not finite sums past the float range."""
    problems = []
    for j, c in enumerate(row):
        at = f"({i + 1},{j + 1})"
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            problems.append(f"non-numeric cost at {at}")
        elif c < 0:
            problems.append(f"negative cost at {at}")
        else:
            try:
                x = float(c)
            except OverflowError:
                problems.append(f"cost at {at} is too large for a float")
                continue
            if x != x or x == math.inf:
                problems.append(f"non-finite cost at {at}")
    if not problems and not math.isfinite(sum(float(c) for c in row)):
        problems.append(f"costs of row {i + 1} sum past the float range")
    return problems


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
    item that is smallest by (its cost, minus its index): of two tied
    items, the one `rank_reference` lists last."""
    costs = matrix.costs
    remaining = set(range(len(costs[0])))
    bundles: list[set[int]] = [set() for _ in costs]
    for i in sequence:
        j = min(remaining, key=lambda t: (costs[i][t], -t))
        bundles[i].add(j)
        remaining.remove(j)
    return tuple(frozenset(b) for b in bundles)


def pick_tree_reference(matrix, sequence: Sequence[int], agent: int) -> set[frozenset[int]]:
    """The agent's serial_pick_reference bundles when it reports each of
    the m! strict rankings, as costs 1..m from its first-ranked item on,
    and every other agent its row of `matrix`."""
    m = len(matrix.costs[0])
    bundles = set()
    for perm in permutations(range(m)):
        row = [0.0] * m
        for pos, j in enumerate(perm):
            row[j] = float(pos + 1)
        costs = matrix.costs[:agent] + (tuple(row),) + matrix.costs[agent + 1 :]
        bundles.add(serial_pick_reference(CostMatrix(costs), sequence)[agent])
    return bundles


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


def randdecl_expected_cost_reference(matrix: CostMatrix, agent: int, labels) -> float:
    """randdecl's closed-form expectation as it was first written: item j's
    declaration count b_j is a membership test in every agent's set, item
    by item, and both sums add the items in ascending order."""
    n, m = matrix.n, matrix.m
    row = matrix.costs[agent]
    mine = labels[agent]
    phase1 = sum(row[j] for j in range(m) if j not in mine) / n
    pool_exp = sum(row[j] * sum(j in labels[k] for k in range(n)) for j in range(m)) / n
    return phase1 + pool_exp / n


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
    one is the one described. Under public rankings a grid row is tried
    when its `rank_reference` order is the agent's true one. A deviation is
    profitable when it undercuts the truthful cost by more than a `tol`
    share of it.
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
            if model is Model.PUBLIC_RANKING and rank_reference(row) != true_order:
                continue
            misreports.append((f"grid factors {factors}", row))
    best, desc = truthful, "truthful"
    for label, row in misreports:
        cost = true_cost_with(row)
        if cost < best:
            best, desc = cost, label
    if model is Model.PUBLIC_RANKING and not include_grid:
        desc = "none (ordinal report channel closed under public rankings)"
    return truthful, best, desc, best < truthful * (1.0 - tol)


def move_rankings_reference(row: Sequence[float], held, preserving: bool) -> dict:
    """For each item j of the one-agent `row`, the `rank_reference` orders
    of the rows that move row[j] alone, down to a value in [0, row[j]) when
    j is `held` and up otherwise, over a dense sweep, keeping the row's sum
    finite. The sweep takes every sixteenth in [0, 8), and 0 and each entry
    with its two float neighbours and twice itself plus one, so it meets
    every tie, every gap that holds a float, and the span above the maximum.
    Under `preserving`, only the moves that keep the row's order and put
    row[j] on no entry's value and not on 0. Items that reach nothing are
    left out."""
    points = {0.0, *row}
    sweep = {k / 16 for k in range(128)}
    for v in points:
        sweep |= {v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf), 2 * v + 1}
    truth = rank_reference(row)
    reached: dict = {}
    for j, c in enumerate(row):
        for x in sweep:
            if not (0 <= x < c if j in held else x > c):
                continue
            moved = [*row[:j], x, *row[j + 1 :]]
            if not math.isfinite(sum(moved)):
                continue
            order = rank_reference(moved)
            if preserving and (order != truth or x in points):
                continue
            reached.setdefault(j, set()).add(tuple(order))
    return reached


def moved_rankings(check, row: Sequence[float], held, preserving: bool) -> dict:
    """What `check`, a monotonicity check, reaches on the one-agent `row`,
    keyed as `move_rankings_reference` keys it: the `rank_reference` orders
    of the rows it runs past the first, the truthful one, by the one entry
    each moves. The rule it checks gives the agent `held` on every row, so
    no move ends the check. A row that moves no entry, or several, is filed
    under None."""
    runs = []

    def rule(matrix):
        runs.append(matrix.costs[0])
        return Allocation((frozenset(held),))

    check(rule, CostMatrix((tuple(row),)), ranking_preserving=preserving)
    reached: dict = {}
    for moved in runs[1:]:
        changed = [j for j, (x, c) in enumerate(zip(moved, row)) if x != c]
        key = changed[0] if len(changed) == 1 else None
        reached.setdefault(key, set()).add(tuple(rank_reference(moved)))
    return reached


def witness_ordinal_rand_grid() -> tuple[float, float]:
    """Independent cross-check of witness_ordinal_rand on a fine p grid."""
    (au, asp), (bu, bsp) = _class_ratio_pairs()
    p = np.arange(0.0, 1.0 + WITNESS_GRID_STEP, WITNESS_GRID_STEP)
    values = np.maximum(
        p * float(au) + (1 - p) * float(bu),
        p * float(asp) + (1 - p) * float(bsp),
    )
    idx = int(np.argmin(values))
    return float(values[idx]), float(p[idx])


def strip_runtime(csv_text: str) -> str:
    """Drop the runtime column; what is left must be byte-stable across runs."""
    out_lines = []
    for line in csv_text.splitlines():
        out_lines.append(line.rsplit(",", 1)[0])
    return "\n".join(out_lines) + "\n"
