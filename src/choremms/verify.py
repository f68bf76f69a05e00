"""Strategyproofness, monotonicity and lower-bound witness checks.

Everything here is exhaustive or closed-form at desk scale: deviation
searches cover every ranking misreport (all m! of them), every
magnitude-grid misreport or every alternative label set, the monotonicity
check tries every single-entry move once per ranking position it reaches,
and the two witness values come from brute force over a fixed 2-agent
4-item family with identical rankings, in exact rational arithmetic.

Grid misreports and randdecl's phase-1 landings are enumerated as numpy
blocks of at most BLOCK rows, in `itertools.product` order. A grid
block is filtered by the public ranking: a row is kept when its stable
descending argsort, `algorithms.label_sets`' numpy form of `model.rank`,
is the public ranking. A deviation search runs each report on the
rebuilt matrix, the truthful one first, and scans the costs in
enumeration order. It runs each distinct reported row once; for a
seqpick or roundrobin `Runner`, and for dc3's divider (agent index 0) on
3 agents, each distinct ranking of the row once, since the rule reads
the row through its `model.rank` order alone. A landing block adds each landing's sums column by column,
and the total is carried from landing to landing, so the expectation is
the one a per-landing loop computes, bit for bit. Monte-Carlo trials are
dealt BLOCK at a time too.

Where the rule tells every bundle any report can give the agent, its
leaves, the check prices them first: the agent's pick tree
(`algorithms.pick_tree`) for a seqpick or roundrobin `Runner`, and the
bundles on offer (`algorithms.dc3_offer`) for a dc3 `Runner`'s chooser
on 3 agents; under public rankings a check keyed by the ranking has one,
the truthful bundle. When no leaf is cheaper than the truth, no
misreport is, and the check reports "truthful" with nothing enumerated.
Otherwise one scan consumes the misreports as one stream, the rankings
and then the grid rows, so that the deviation named is the first
cheapest in enumeration order. It has one stop, at the first report as
cheap as the cheapest leaf, in either channel: no later report can be
strictly cheaper, and leaving the scan ends the stream. A grid that holds
an invalid row is refused before anything runs, so every grid row the
scan meets is a valid report.

A ranking misreport places the truthful report's own values, sorted
descending, along the reported ranking: the surrogate costs of
`surrogate_matrix` under the ordinal model, the agent's true costs under
the cardinal one. A report's `profitable` is derived from its two costs:
the best deviation undercuts the truthful cost by more than a PROFIT_TOL
share of it, so a verdict does not depend on the unit of cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .algorithms import (
    Labels,
    allocate,
    check_algorithm,
    check_labels,
    dc3_offer,
    label_count,
    label_matrix,
    label_sets,
    pick_sequence,
    pick_tree,
    randdecl,
    randdecl_deal,
    randdecl_expected_cost,
)
from .model import (
    Allocation,
    CostMatrix,
    Model,
    descending,
    rankings,
    row_problems,
    surrogate_matrix,
)

PROFIT_TOL = 1e-9
# sp_check_ordinal enumerates all m! rankings, or all 4^m grid factor rows:
# 5040 and 16384 at this many items
MAX_ORDINAL_ITEMS = 7
# a randomized check searches at most this many label sets, and
# enum_expected_cost enumerates at most this many phase-1 landings
MAX_ENUMERATION = 200_000
# the Monte-Carlo trials of a randomized check's cross-check
MC_TRIALS = 10_000
# grid misreports, randdecl landings or Monte-Carlo trials per block
BLOCK = 1024


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a deviation search for one agent."""

    agent: int
    truthful_cost: float
    best_deviation_cost: float
    deviation: str

    @property
    def profitable(self) -> bool:
        return self.best_deviation_cost < self.truthful_cost * (1.0 - PROFIT_TOL)

    def to_jsonable(self) -> dict:
        return {
            "agent": self.agent + 1,
            "truthful_cost": self.truthful_cost,
            "best_deviation_cost": self.best_deviation_cost,
            "deviation": self.deviation,
            "profitable": self.profitable,
        }


@dataclass(frozen=True)
class Runner:
    """A named deterministic algorithm, dispatched through `allocate`, so
    the checkers see the same preconditions and rules as the CLI.

    Called on a matrix (true, surrogate, or misreported: exactly the
    reporting channel the deviation search manipulates) it returns the
    Allocation. Its name also tells `sp_check_ordinal` what the rule
    reads of an agent's row (see `_reading`). seqpick and roundrobin read
    it only through its ranking: the check then runs one report per
    distinct ranking and bounds the search by the agent's pick tree. dc3
    reads its divider's row only through its ranking too, and bounds each
    chooser's search by the bundles on offer.
    """

    name: str

    def __call__(self, matrix: CostMatrix) -> Allocation:
        return allocate(matrix, self.name)


def algorithm_runner(name: str) -> Runner:
    """The Runner of the named deterministic algorithm."""
    if name not in ("seqpick", "roundrobin", "dc3"):
        raise ValueError(f"no deterministic runner for {name!r}")
    return Runner(name)


def _ranking(row: Sequence[float]) -> tuple[int, ...]:
    """The row's `model.rank` order: its items by descending cost, ties by
    ascending index. A serial-pick agent takes the items still free in
    this order reversed, and dc3's divider cuts its bundles along it, so
    either rule reads the row through nothing else."""
    return tuple(descending(row))


def _reading(
    algorithm: Callable[[CostMatrix], Allocation], matrix: CostMatrix, agent: int
) -> tuple[Callable[[Sequence[float]], tuple], Optional[Iterable[frozenset[int]]]]:
    """What `algorithm` reads of the agent's reported row when the other
    agents report their rows of `matrix`, as (key, leaves).

    Two rows of one key give the agent one bundle. Every valid report gives
    it one of the leaves, when they are known (else None):
      - a seqpick or roundrobin Runner reads the row through its
        `_ranking` alone, and the leaves are the agent's pick tree (walked
        only when read);
      - a dc3 Runner on n = 3 agents reads the divider's row (agent index
        0) through its `_ranking` alone, with no leaves; a chooser's row
        picks among the bundles on offer (`dc3_offer`), so those are its
        leaves, and the row itself is the key;
      - any other check is keyed by the row itself, with no leaves.
    """
    n, m = matrix.n, matrix.m
    if isinstance(algorithm, Runner):
        if algorithm.name in ("seqpick", "roundrobin"):
            sequence = pick_sequence(algorithm.name, n, m)
            return _ranking, pick_tree(matrix, sequence, agent)
        if algorithm.name == "dc3" and n == 3:
            if agent == 0:
                return _ranking, None
            return tuple, dc3_offer(matrix, agent)
    return tuple, None


def _product_blocks(base: int, m: int):
    """The rows of `itertools.product(range(base), repeat=m)`, in order, as
    (rows, m) digit arrays of at most BLOCK rows each."""
    total = base**m
    dtype = np.min_scalar_type(max(base - 1, 0))
    for lo in range(0, total, BLOCK):
        index = np.arange(lo, min(lo + BLOCK, total))
        digits = np.empty((len(index), m), dtype=dtype)
        # the last position varies fastest
        for j in reversed(range(m)):
            index, digits[:, j] = np.divmod(index, base)
        yield digits


def sp_check_ordinal(
    algorithm: Callable[[CostMatrix], Allocation],
    matrix: CostMatrix,
    agent: int,
    model: Model = Model.ORDINAL,
    include_grid: bool = False,
    grid_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
) -> DeviationReport:
    """Search every unilateral misreport available to `agent` under `model`.

    Ordinal model: all m! reported rankings, fed to the algorithm as
    surrogate costs. Cardinal model: the same rankings realized as
    rearrangements of the agent's true cost multiset, optionally extended by
    a per-item magnitude grid. Public-ranking model: rankings are public, so
    the ordinal report channel is closed; only (ranking-consistent) grid
    misreports remain, and only when the grid is enabled.

    The resulting bundle is always priced with the agent's *true* row. A
    `Runner` of a rule the model refuses (`check_algorithm`) is refused before
    anything runs. Above MAX_ORDINAL_ITEMS items a search that enumerates
    ranking or grid misreports is refused. So, before anything runs, is a grid
    with a row that is no valid cost row (`model.row_problems`): exactly when
    one of the single-factor rows, a factor times each true cost, is invalid,
    since each grid row takes every entry from one of them and none has larger
    entries or a larger float sum than the largest factor's row.

    The misreports come as one stream, in enumeration order: the rankings,
    then the grid rows (those that keep the public ranking, under that
    model). One scan runs every report, the truthful one first, by one call
    of `algorithm` on the rebuilt matrix, and names the first cheapest; a
    name is formatted only when its report improves on the best so far.
    The cache is keyed by what the rule reads of the row (`_reading`), so
    two rows of one key run once:
      - for a seqpick or roundrobin `Runner`, and for dc3's divider (agent
        index 0) under a dc3 `Runner` on 3 agents, the row's `model.rank`
        order;
      - for anything else, the row itself.
    Where the rule also tells the agent's leaves, every bundle a valid
    report can give it, the check prices them first: the pick tree of a
    seqpick or roundrobin agent, and the bundles on offer to a dc3 chooser
    (all three to the first, index 1; to the second the two that the first
    one's truthful row leaves). Under public rankings a check keyed by the ranking has
    one leaf, the truthful bundle: the filter keeps only grid rows whose
    `model.rank` order is the public ranking. If the cheapest leaf is no
    cheaper than the truth, neither is any misreport, and there is nothing
    to scan. Otherwise the scan stops at the first report, ranking or grid
    row, that costs as little as that leaf, and the rest of the stream is
    never made: no later report can be strictly cheaper, so the deviation
    named is the one a full enumeration names.
    """
    if isinstance(algorithm, Runner):
        check_algorithm(algorithm.name, model)
    n, m = matrix.n, matrix.m
    grid = tuple(grid_factors)
    grid_on = include_grid and model in (Model.CARDINAL, Model.PUBLIC_RANKING)
    searched = []
    if model in (Model.ORDINAL, Model.CARDINAL):
        searched.append(f"{m}! = {math.factorial(m)} ranking misreports")
    if grid_on:
        searched.append(f"{len(grid)}^{m} = {len(grid) ** m} grid misreports")
    # a public-ranking check without the grid enumerates nothing
    if m > MAX_ORDINAL_ITEMS and searched:
        raise ValueError(
            f"{m} items means {' and '.join(searched)}; the deviation search "
            f"takes at most {MAX_ORDINAL_ITEMS} items, so check an instance with "
            "fewer items"
        )
    true_row = matrix.row(agent)
    if grid_on and any(row_problems([f * c for c in true_row]) for f in grid):
        raise ValueError(
            f"agent {agent + 1}'s grid misreports leave the float range, though the "
            "instance does not: each factor times each cost must be >= 0, and "
            f"{max(grid)} times the agent's costs must sum to a finite float; scaling "
            "the costs down by a power of two changes no verdict"
        )
    true_orders = rankings(matrix)
    truthful_matrix = (
        surrogate_matrix(true_orders) if model is Model.ORDINAL else matrix
    )
    # Every misreport changes the agent's row alone: the other rows are
    # shared, so what the rule reads of the agent's row keys the cache
    key, leaves = _reading(algorithm, truthful_matrix, agent)
    base = truthful_matrix.costs
    cache: dict[tuple, float] = {}

    def price(bundle: frozenset[int]) -> float:
        return sum(true_row[j] for j in bundle)

    def cost_of(row: tuple[float, ...]) -> float:
        k = key(row)
        if k not in cache:
            reported = CostMatrix(base[:agent] + (row,) + base[agent + 1 :])
            cache[k] = price(algorithm(reported).bundles[agent])
        return cache[k]

    def misreports():
        """Every misreport as (row, name), in enumeration order: the
        rankings, then the grid rows; a name is formatted when called."""
        if model in (Model.ORDINAL, Model.CARDINAL):
            # the value at ranking position k is the truthful report's k-th
            # largest entry, so every ranking misreport is a valid row
            values = sorted(base[agent], reverse=True)
            row = [0.0] * m
            for perm in permutations(range(m)):
                for pos, j in enumerate(perm):
                    row[j] = values[pos]
                yield tuple(row), lambda perm=perm: f"ranking {tuple(j + 1 for j in perm)}"
        if grid_on:
            factors = np.array(grid, dtype=float)
            truth = np.array(true_row)
            order = np.array(true_orders[agent])
            for digits in _product_blocks(len(grid), m):
                rows = factors[digits] * truth
                survivors = np.arange(len(rows))
                if model is Model.PUBLIC_RANKING:
                    # each row's stable descending argsort, `label_sets`'
                    # numpy form of `model.rank`, must be the public ranking
                    ranks = np.argsort(np.negative(rows), axis=1, kind="stable")
                    survivors = np.flatnonzero((ranks == order).all(axis=1))
                for k, row in zip(survivors.tolist(), rows[survivors].tolist()):
                    yield tuple(row), lambda k=k, digits=digits: (
                        f"grid factors {tuple(grid[d] for d in digits[k].tolist())}"
                    )

    truthful_cost = cost_of(base[agent])
    best = truthful_cost
    best_desc = "truthful"

    # Every valid report's bundle is a leaf, so no report costs less than
    # the cheapest leaf. When that is no cheaper than the truth, there is
    # nothing to scan: enumeration would name nothing. Else the scan stops
    # once it has found a report that cheap, since no later one can be
    # strictly cheaper.
    least = -math.inf
    if searched:
        if model is Model.PUBLIC_RANKING and key is _ranking:
            # every row kept has the truthful ranking: the one leaf is the
            # truthful bundle
            least = truthful_cost
        elif leaves is not None:
            least = min(map(price, leaves))
    for row, name in misreports() if least < truthful_cost else ():
        cost = cost_of(row)
        if cost < best:
            best = cost
            best_desc = name()
            if best <= least:
                break

    if model is Model.PUBLIC_RANKING and not include_grid:
        best_desc = "none (ordinal report channel closed under public rankings)"

    return DeviationReport(
        agent=agent,
        truthful_cost=truthful_cost,
        best_deviation_cost=best,
        deviation=best_desc,
    )


# --- randomized deviation search ---------------------------------------------

GatherRule = Callable[[int, int, Labels], bool]


def _standard_gather(item: int, recipient: int, labels: Labels) -> bool:
    return item in labels[recipient]


def _check_enumerable(n: int, m: int) -> None:
    if n**m > MAX_ENUMERATION:
        raise ValueError(f"exact enumeration of {n}^{m} landings is infeasible; use montecarlo")


def enum_expected_cost(
    matrix: CostMatrix,
    agent: int,
    labels: Optional[Labels] = None,
    gather: GatherRule = _standard_gather,
) -> float:
    """Exact randdecl expectation by enumerating all n^m phase-1 landings,
    when the agents declare `labels` (default: truthfully).

    Independent of the closed form: per landing, the agent keeps what landed
    on it and was not pooled, plus exactly 1/n of the pooled cost (phase 2
    places each pooled item on each agent with probability 1/n). `gather`
    is asked once per (item, recipient) pair. Landings come in blocks of
    digit columns; each landing's pooled and kept sums add the items in
    ascending order, and the total adds the landings in `product` order,
    as a loop over the landings would. Past MAX_ENUMERATION it refuses.
    """
    n, m = matrix.n, matrix.m
    _check_enumerable(n, m)
    labels = check_labels(matrix, labels)
    row = matrix.row(agent)
    # what item j adds to the pooled and to the kept sum when it lands on
    # each agent; adding 0.0 to a sum that starts at 0.0 leaves it as is
    pooled_add = np.zeros((m, n))
    kept_add = np.zeros((m, n))
    for j in range(m):
        for recipient in range(n):
            if gather(j, recipient, labels):
                pooled_add[j, recipient] = row[j]
            elif recipient == agent:
                kept_add[j, recipient] = row[j]
    total = 0.0
    # costs near the float limit overflow to inf here, which the caller rejects
    with np.errstate(over="ignore"):
        for landings in _product_blocks(n, m):
            pooled = np.zeros(len(landings))
            kept = np.zeros(len(landings))
            for j in range(m):
                pooled += pooled_add[j][landings[:, j]]
                kept += kept_add[j][landings[:, j]]
            costs = kept + pooled / n
            # the running total enters at the block's first landing, so the
            # cumulative sum goes on adding one landing at a time
            costs[0] += total
            total = float(np.cumsum(costs)[-1])
    return total / n**m


def mc_expected_cost(
    matrix: CostMatrix,
    agent: int,
    labels: Optional[Labels] = None,
    trials: int = MC_TRIALS,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the agent's randdecl cost when
    the agents declare `labels` (default: truthfully).

    Every draw comes from one `default_rng(SeedSequence(seed))` stream.
    Trial 0 is `randdecl` itself, drawing from that stream, so every
    estimate runs the rule end to end, its draws included. The other
    trials then take, in three batched calls, every trial's landings, a
    random permutation of all m items per trial, and every trial's start.
    Restricted to the pool, a uniform permutation of the items is a uniform
    deal order, so each trial is a randdecl outcome. `randdecl_deal` deals
    them BLOCK trials at a time, so the deal's own arrays stay
    O(BLOCK * m) at any trial count. Each trial's cost adds the agent's
    items in ascending index order, starting from 0.0: the additions of
    `sum(row[j] for j in sorted(bundle))`, one item at a time, over the
    contiguous rows of the block's (m, BLOCK) holdings. The estimate is
    the one a scan per trial gives, bit for bit.
    """
    n, m = matrix.n, matrix.m
    if trials < 1:
        raise ValueError("Monte-Carlo estimate needs at least one trial")
    labels = check_labels(matrix, labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    row = matrix.row(agent)
    costs = np.empty(trials)
    costs[0] = sum(row[j] for j in sorted(randdecl(matrix, rng, labels).bundles[agent]))
    rest = trials - 1
    landings = rng.integers(0, n, size=(rest, m), dtype=np.min_scalar_type(n - 1))
    items = np.arange(m, dtype=np.min_scalar_type(m - 1))
    orders = rng.permuted(np.tile(items, (rest, 1)), axis=1)
    starts = rng.integers(0, n, size=rest)
    marks = label_matrix(labels, m)
    # costs near the float limit overflow to inf here, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rest, BLOCK):
            block = slice(lo, lo + BLOCK)
            owner = randdecl_deal(marks, landings[block], orders[block], starts[block])
            # held[j, t]: whether the agent gets item j in the block's trial t
            held = (owner == agent).T.copy()
            acc = np.zeros(len(owner))
            for j in range(m):
                acc += np.where(held[j], row[j], 0.0)
            costs[1 + lo : 1 + lo + BLOCK] = acc
        # the mean and std of the costs scaled exactly, by a power of two, to
        # below 2: their sum and squares stay finite where the costs' own
        # would overflow
        scale = 2.0 ** (math.frexp(costs.max())[1] - 1)
        scaled = costs / scale
        std = scaled.std(ddof=1) * scale if trials > 1 else 0.0
        stderr = float(std / np.sqrt(trials))
        return float(scaled.mean() * scale), stderr


def sp_check_randomized(
    matrix: CostMatrix,
    agent: int,
    mode: str = "exact",
    expected_cost: Optional[Callable[[CostMatrix, int, Labels], float]] = None,
) -> DeviationReport:
    """Compare the agent's truthful expected cost against every alternative
    label set of the canonical size.

    The search uses the closed-form expectation (or a caller's, e.g. a
    mutant's) on the whole declared profile: the truthful one, built once,
    with the agent's set substituted, a plain tuple that the closed form
    checks as any caller's. One rule cross-checks the closed form on each
    profile the report's values come from, the truthful one and a cheaper
    best one, by `mode`'s estimator: "exact" enumerates all phase-1
    landings, within 1e-9 of the estimate; "montecarlo" simulates MC_TRIALS
    trials, within 6 standard errors or 1e-12 of the value (shares, or
    absolute below 1). A non-finite estimate, value or tolerance raises
    ValueError, a difference past the tolerance AssertionError. A request
    the cross-check would refuse, or a search of more than MAX_ENUMERATION
    label sets, is refused before the search.
    """
    n, m = matrix.n, matrix.m
    if mode == "exact":
        _check_enumerable(n, m)
    elif mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    k = label_count(n, m)
    if (sets := math.comb(m, k)) > MAX_ENUMERATION:
        raise ValueError(
            f"{m} items means C({m}, {k}) = {sets} label sets; the randomized "
            f"deviation search takes at most {MAX_ENUMERATION} of them, so check an "
            "instance with fewer items"
        )
    oracle = expected_cost or randdecl_expected_cost
    truthful_labels = label_sets(matrix)
    truthful = oracle(matrix, agent, truthful_labels)
    best = truthful
    best_labels = truthful_labels
    best_desc = "truthful"
    for combo in combinations(range(m), k):
        labels = truthful_labels[:agent] + (frozenset(combo),) + truthful_labels[agent + 1 :]
        cost = oracle(matrix, agent, labels)
        if cost < best:
            best = cost
            best_labels = labels
            best_desc = f"labels {tuple(j + 1 for j in combo)}"

    checked = {truthful_labels: truthful, best_labels: best} if expected_cost is None else {}
    for labels, value in checked.items():
        if mode == "exact":
            estimator = "enumeration"
            estimate = enum_expected_cost(matrix, agent, labels)
            tol = 1e-9 * max(1.0, abs(estimate))
        else:
            estimator = "Monte-Carlo estimate"
            estimate, stderr = mc_expected_cost(matrix, agent, labels, MC_TRIALS)
            # the two differ by rounding, in proportion to the costs, at least
            tol = max(6.0 * stderr, 1e-12 * max(1.0, abs(value)))
        if not all(map(math.isfinite, (estimate, value, tol))):
            raise ValueError(
                f"closed form {value}, {estimator} {estimate} or tolerance {tol} is "
                "not finite; the costs are too large to cross-check"
            )
        if abs(estimate - value) > tol:
            raise AssertionError(
                f"closed form {value} disagrees with {estimator} {estimate} (allowed "
                f"{tol:.3g}) for the agent's labels {sorted(labels[agent])}"
            )

    return DeviationReport(
        agent=agent,
        truthful_cost=truthful,
        best_deviation_cost=best,
        deviation=best_desc,
    )


# --- monotonicity --------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityCounterexample:
    agent: int
    item: int
    old_cost: float
    new_cost: float
    bundle_before: frozenset[int]
    bundle_after: frozenset[int]


def _moves(row: tuple[float, ...], j: int, up: bool, preserving: bool) -> list[float]:
    """The values the check gives row[j], raised (`up`) or lowered, one per
    `model.rank` position the move reaches: each distinct value on that
    side, 0 counted below, as a tie the ranking breaks by index; the
    midpoint of each gap between consecutive ones, from row[j] on, or the
    gap's least float where the midpoint's row would sum past the float
    range, when it lies strictly inside; raised, one value above the
    maximum. `preserving` tries only the first of these gaps, the one to
    the rank-order neighbour, and nothing when that neighbour is a tie."""
    c = row[j]
    if up:
        side = sorted({x for x in row if x > c})
        tied = c in row[:j]
    else:
        side = sorted({x for x in (0.0, *row) if x < c}, reverse=True)
        tied = c in row[j + 1 :]
    # the row's sum without row[j]: a move to x sums to rest + x
    rest = sum(row) - c
    gaps = [sorted(pair) for pair in zip((c, *side), side)]
    mids = [lo + (hi - lo) / 2 for lo, hi in gaps]
    mids = [
        x if math.isfinite(rest + x) else math.nextafter(lo, math.inf)
        for x, (lo, _) in zip(mids, gaps)
    ]
    mids = [x if lo < x < hi else None for x, (lo, hi) in zip(mids, gaps)]
    if up:
        # twice the maximum, or the next float above it where the row's sum
        # would leave the float range
        top = max(row)
        above = 2 * top or 1.0
        if not math.isfinite(rest + above):
            above = math.nextafter(top, math.inf)
        mids.append(above)
    if preserving:
        return [] if tied else [x for x in mids[:1] if x is not None]
    return side + [x for x in mids if x is not None]


def monotonicity_check(
    algorithm: Callable[[CostMatrix], Allocation],
    matrix: CostMatrix,
    ranking_preserving: bool = False,
) -> Optional[MonotonicityCounterexample]:
    """Raising an unheld item's cost or lowering a held one must not change
    the agent's bundle. Returns the first counterexample, by agent and
    item, or None when every move passes.

    Each single-entry move is tried once per `model.rank` position it
    reaches (`_moves`), so the check is exhaustive for a rule that reads a
    row through its ranking alone (seqpick, roundrobin, dc3's divider).
    `ranking_preserving` keeps the moved entry strictly inside the gap to
    its rank-order neighbours: public-ranking guarantees hold while the
    rankings stay fixed. A row that is no valid cost row is not tried.
    """
    base = algorithm(matrix)
    costs = matrix.costs
    for i, row in enumerate(costs):
        held = base.bundles[i]
        for j in range(matrix.m):
            for x in _moves(row, j, j not in held, ranking_preserving):
                moved = row[:j] + (x,) + row[j + 1 :]
                if row_problems(moved):
                    continue
                after = algorithm(CostMatrix(costs[:i] + (moved,) + costs[i + 1 :]))
                if after.bundles[i] != held:
                    return MonotonicityCounterexample(i, j, row[j], x, held, after.bundles[i])
    return None


# --- lower-bound witnesses -------------------------------------------------------

_WITNESS_PROFILES = (
    (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(3), Fraction(1), Fraction(1), Fraction(1)),
)


def _split_ratios() -> list[tuple[Allocation, tuple[Fraction, ...]]]:
    """Every 2-agent split of the witness items, in bitmask order, with its
    worst-agent ratio under each profile: the larger bundle's cost over the
    profile's share, which is the smallest such cost over all splits."""
    splits = []
    for mask in range(1 << 4):
        b1 = frozenset(j for j in range(4) if mask >> j & 1)
        b2 = frozenset(range(4)) - b1
        worst = tuple(
            max(sum(p[j] for j in b1), sum(p[j] for j in b2)) for p in _WITNESS_PROFILES
        )
        splits.append((Allocation((b1, b2)), worst))
    shares = [min(col) for col in zip(*(worst for _, worst in splits))]
    return [(alloc, tuple(w / s for w, s in zip(worst, shares))) for alloc, worst in splits]


def witness_ordinal_det() -> tuple[Fraction, Allocation]:
    """Best worst-case ratio any deterministic rank-only rule can reach on
    the 2-agent, 4-item family with identical rankings.

    Since such a rule sees only the (shared) ranking, one allocation must
    serve both cardinal profiles (1,1,1,1) and (3,1,1,1); brute force over
    all 16 allocations gives the min-max, which is exactly 4/3.
    """
    alloc, ratios = min(_split_ratios(), key=lambda split: max(split[1]))
    return max(ratios), alloc


def _class_ratio_pairs() -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Best per-profile worst-agent ratio inside each allocation class.

    Classes: both bundles of size 2, versus everything else. Both profiles
    share one ranking, so a randomized rank-only rule is exactly a coin flip
    between the best representative of each class.
    """
    two_two, other = [], []
    for alloc, ratios in _split_ratios():
        (two_two if all(len(b) == 2 for b in alloc.bundles) else other).append(ratios)
    best_two, best_other = (tuple(map(min, zip(*c))) for c in (two_two, other))
    return best_two, best_other  # type: ignore[return-value]


def witness_ordinal_rand() -> tuple[Fraction, Fraction]:
    """Best expected worst-case ratio of a randomized rank-only rule on the
    same family, with the optimal probability of the 2-2 split.

    Exact piecewise-linear minimization: mixing the best 2-2 allocation
    (probability p) with the best other allocation gives per-profile
    expected ratios linear in p; the adversary takes the max, and the
    optimum sits at their crossing, p* = 3/5 with value 6/5.
    """
    (au, asp), (bu, bsp) = _class_ratio_pairs()

    def value_at(p: Fraction) -> Fraction:
        return max(p * au + (1 - p) * bu, p * asp + (1 - p) * bsp)

    candidates = [Fraction(0), Fraction(1)]
    denom = (au - bu) - (asp - bsp)
    if denom != 0:
        crossing = (bsp - bu) / denom
        if 0 <= crossing <= 1:
            candidates.append(crossing)
    p_star = min(candidates, key=value_at)
    return value_at(p_star), p_star


# --- fixture instance families -----------------------------------------------------

def fixture_instances(family: str) -> list[CostMatrix]:
    """The fixed profile sequences behind the adaptive lower-bound arguments.

    They ship as regression fixtures for the implemented algorithms; the
    universal lower-bound claims themselves are not mechanized here.
    """
    if family == "cardinal_43":
        rows = [
            [[3, 1, 1, 1], [3, 1, 1, 1]],
            [[1, 3, 1, 1], [3, 1, 1, 1]],
            [[1, 3, 1, 1], [2, 2, 1, 1]],
        ]
    elif family == "public_65":
        rows = [
            [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
            [[1, 1, 1, 1, 1, 5], [1, 1, 1, 1, 1, 1]],
            [[1, 1, 1, 1, 1, 5], [1, 1, 1, 1, 1, 5]],
            [[1, 1, 1, 1, 1, 3], [1, 1, 1, 1, 1, 5]],
            [[1, 1, 1, 1, 1, 3], [1, 1, 1, 1, 1, 1]],
            [[1, 1, 1, 1, 1, 3], [1, 1, 1, 1, 1, 3]],
        ]
    else:
        raise ValueError(f"unknown fixture family {family!r}")
    return [CostMatrix.from_rows(r) for r in rows]
