"""Strategyproofness, monotonicity and lower-bound witness checks.

Everything here is exhaustive or closed-form at desk scale: deviation
searches enumerate every ranking misreport (all m! of them) or every
alternative label set, monotonicity is probed with seeded single-entry
perturbations, and the two witness values come from brute force over a
fixed 2-agent 4-item family with identical rankings, in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Optional, Sequence

import numpy as np

from .algorithms import (
    Labels,
    allocate,
    check_labels,
    label_count,
    label_sets,
    randdecl,
    randdecl_deal,
    randdecl_expected_cost,
)
from .model import Allocation, CostMatrix, Model, rankings, surrogate_matrix

PROFIT_TOL = 1e-9
# sp_check_ordinal enumerates all m! rankings: 5040 at this many items
MAX_ORDINAL_ITEMS = 7
# p spacing of witness_ordinal_rand_grid
WITNESS_GRID_STEP = 1e-6


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a deviation search for one agent."""

    agent: int
    truthful_cost: float
    best_deviation_cost: float
    deviation: str
    profitable: bool

    def to_jsonable(self) -> dict:
        return {
            "agent": self.agent + 1,
            "truthful_cost": self.truthful_cost,
            "best_deviation_cost": self.best_deviation_cost,
            "deviation": self.deviation,
            "profitable": self.profitable,
        }


def algorithm_runner(name: str):
    """A matrix -> Allocation callable for the named deterministic algorithm.

    The callable consumes whatever matrix the checker hands it (true,
    surrogate, or misreported), which is exactly the reporting channel the
    deviation search manipulates. It dispatches through `allocate`, so the
    checkers see the same preconditions and m <= n bypass as the CLI.
    """
    if name not in ("seqpick", "roundrobin", "dc3"):
        raise ValueError(f"no deterministic runner for {name!r}")
    return lambda mat: allocate(mat, name)


def _ranking_consistent(row: Sequence[float], order: Sequence[int]) -> bool:
    return all(row[order[k]] >= row[order[k + 1]] for k in range(len(order) - 1))


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

    The resulting bundle is always priced with the agent's *true* row.
    """
    m = matrix.m
    if m > MAX_ORDINAL_ITEMS:
        raise ValueError(
            f"{m} items means {m}! ranking misreports; refuse above {MAX_ORDINAL_ITEMS} "
            "(use a sampled deviation search instead)"
        )
    true_row = matrix.row(agent)
    true_orders = rankings(matrix)
    truthful_matrix = (
        surrogate_matrix(true_orders) if model is Model.ORDINAL else matrix
    )
    # Every misreport changes the agent's row alone: the other rows are
    # shared, and the agent's reported row is the cache key.
    base = truthful_matrix.costs
    cache: dict[tuple[float, ...], float] = {}

    def run_on(row: tuple[float, ...]) -> float:
        if row not in cache:
            alloc = algorithm(CostMatrix(base[:agent] + (row,) + base[agent + 1 :]))
            cache[row] = sum(true_row[j] for j in alloc.bundles[agent])
        return cache[row]

    truthful_cost = run_on(base[agent])
    best = truthful_cost
    best_desc = "truthful"

    if model in (Model.ORDINAL, Model.CARDINAL):
        # the value at ranking position k: the surrogate's m - k, or the
        # agent's k-th largest true cost; both rows are already valid
        values = (
            [float(m - pos) for pos in range(m)]
            if model is Model.ORDINAL
            else sorted(true_row, reverse=True)
        )
        row = [0.0] * m
        for perm in permutations(range(m)):
            for pos, j in enumerate(perm):
                row[j] = values[pos]
            cost = run_on(tuple(row))
            if cost < best:
                best = cost
                best_desc = f"ranking {tuple(j + 1 for j in perm)}"

    if include_grid and model in (Model.CARDINAL, Model.PUBLIC_RANKING):
        for factors in product(grid_factors, repeat=m):
            row = [f * c for f, c in zip(factors, true_row)]
            if model is Model.PUBLIC_RANKING and not _ranking_consistent(
                row, true_orders[agent]
            ):
                continue
            # factor x cost can overflow to inf: validate the whole report
            rows = list(base)
            rows[agent] = row
            cost = run_on(CostMatrix.from_rows(rows).costs[agent])
            if cost < best:
                best = cost
                best_desc = f"grid factors {factors}"

    if model is Model.PUBLIC_RANKING and not include_grid:
        best_desc = "none (ordinal report channel closed under public rankings)"

    return DeviationReport(
        agent=agent,
        truthful_cost=truthful_cost,
        best_deviation_cost=best,
        deviation=best_desc,
        profitable=best < truthful_cost - PROFIT_TOL,
    )


# --- randomized deviation search ---------------------------------------------

GatherRule = Callable[[int, int, Labels], bool]


def _standard_gather(item: int, recipient: int, labels: Labels) -> bool:
    return item in labels[recipient]


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
    places each pooled item on each agent with probability 1/n).
    """
    n, m = matrix.n, matrix.m
    labels = label_sets(matrix) if labels is None else check_labels(matrix, labels)
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


def mc_expected_cost(
    matrix: CostMatrix,
    agent: int,
    labels: Optional[Labels] = None,
    trials: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the agent's randdecl cost when
    the agents declare `labels` (default: truthfully).

    Every draw comes from one `default_rng(SeedSequence(seed))` stream.
    Trial 0 is `randdecl` itself, drawing from that stream, so every
    estimate runs the rule end to end, its draws included. The other
    trials then take, in three batched calls, every trial's landings, a
    random permutation of all m items per trial, and every trial's start,
    and `randdecl_deal` deals each trial's pooled items in the order of its
    permutation. Restricted to the pool, a uniform permutation of the items
    is a uniform deal order, so each trial is a randdecl outcome.
    """
    n, m = matrix.n, matrix.m
    if trials < 1:
        raise ValueError("Monte-Carlo estimate needs at least one trial")
    labels = label_sets(matrix) if labels is None else check_labels(matrix, labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    row = matrix.row(agent)
    costs = np.empty(trials)
    costs[0] = sum(row[j] for j in randdecl(matrix, rng, labels).bundles[agent])
    # compact rows, turned into lists one trial at a time: lists of every
    # draw made up front would hold several MB at 10^4 trials
    rest = trials - 1
    landings = rng.integers(0, n, size=(rest, m), dtype=np.min_scalar_type(n - 1))
    items = np.arange(m, dtype=np.min_scalar_type(m - 1))
    orders = rng.permuted(np.tile(items, (rest, 1)), axis=1)
    starts = rng.integers(0, n, size=rest).tolist()
    for t in range(rest):
        alloc = randdecl_deal(labels, landings[t].tolist(), orders[t].tolist(), starts[t])
        costs[t + 1] = sum(row[j] for j in alloc.bundles[agent])
    # costs near the float limit overflow to inf here, which the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        stderr = float(costs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return float(costs.mean()), stderr


def sp_check_randomized(
    matrix: CostMatrix,
    agent: int,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
    expected_cost: Optional[Callable[[CostMatrix, int, Labels], float]] = None,
) -> DeviationReport:
    """Compare the agent's truthful expected cost against every alternative
    label set of the canonical size.

    The search itself uses the closed-form expectation (or a caller-supplied
    one, e.g. for a mutant), called with the whole declared profile: the
    truthful one, built once, with the agent's set substituted. `mode`
    controls the cross-check of the truthful and best-deviation values:
    "exact" enumerates all phase-1 landings, "montecarlo" simulates at least
    10^4 trials.
    """
    n, m = matrix.n, matrix.m
    if n < 2:
        raise ValueError("randdecl deviation search needs at least 2 agents")
    default_oracle = expected_cost is None
    oracle = expected_cost or randdecl_expected_cost
    truthful_labels = label_sets(matrix)
    truthful = oracle(matrix, agent, truthful_labels)
    best = truthful
    best_labels = truthful_labels
    best_desc = "truthful"
    for combo in combinations(range(m), label_count(n, m)):
        labels = truthful_labels[:agent] + (frozenset(combo),) + truthful_labels[agent + 1 :]
        cost = oracle(matrix, agent, labels)
        if cost < best:
            best = cost
            best_labels = labels
            best_desc = f"labels {tuple(j + 1 for j in combo)}"

    if mode == "exact":
        if n**m > 200_000:
            raise ValueError(
                f"exact enumeration of {n}^{m} landings is infeasible; use montecarlo"
            )
        if default_oracle:
            # when the truth is best (every passing check), one profile
            profiles = [truthful_labels] + [best_labels] * (best_labels != truthful_labels)
            for labels in profiles:
                ref = enum_expected_cost(matrix, agent, labels)
                val = oracle(matrix, agent, labels)
                if not (math.isfinite(ref) and math.isfinite(val)):
                    raise ValueError(
                        f"expected cost is not finite (closed form {val}, enumeration "
                        f"{ref}); the costs are too large to cross-check"
                    )
                if abs(ref - val) > 1e-9:
                    raise AssertionError(
                        f"closed form {val} disagrees with enumeration {ref} "
                        f"for the agent's labels {sorted(labels[agent])}"
                    )
    elif mode == "montecarlo":
        if trials < 10_000:
            raise ValueError("montecarlo mode requires at least 10^4 trials")
        if default_oracle:
            est, stderr = mc_expected_cost(matrix, agent, truthful_labels, trials, seed)
            if not (math.isfinite(est) and math.isfinite(stderr)):
                raise ValueError(
                    f"Monte-Carlo estimate {est} (stderr {stderr}) is not finite; "
                    "the costs are too large to cross-check"
                )
            slack = max(6.0 * stderr, 1e-12)
            if abs(est - truthful) > slack:
                raise AssertionError(
                    f"Monte-Carlo estimate {est} is {abs(est - truthful):.3g} away "
                    f"from the closed form {truthful} (allowed {slack:.3g})"
                )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return DeviationReport(
        agent=agent,
        truthful_cost=truthful,
        best_deviation_cost=best,
        deviation=best_desc,
        profitable=best < truthful - PROFIT_TOL,
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


def monotonicity_check(
    algorithm: Callable[[CostMatrix], Allocation],
    matrix: CostMatrix,
    perturbations: int,
    seed: int = 0,
    ranking_preserving: bool = False,
) -> Optional[MonotonicityCounterexample]:
    """Probe: raising an unheld item's cost or lowering a held one must not
    change the perturbed agent's bundle. Returns the first counterexample,
    or None when all perturbations pass.

    `ranking_preserving` keeps each perturbed entry strictly inside the gap
    to its cost neighbours, which is the right notion for public-ranking
    algorithms (their guarantees are conditioned on the rankings staying
    fixed). Entries that cannot move without reordering (ties, zero costs)
    are resampled, not counted.
    """
    rng = np.random.default_rng(seed)
    base = algorithm(matrix)
    n, m = matrix.n, matrix.m
    done = 0
    attempts = 0
    while done < perturbations:
        attempts += 1
        if attempts > 100 * perturbations + 100:
            raise RuntimeError("could not find enough admissible perturbations")
        i = int(rng.integers(n))
        j = int(rng.integers(m))
        row = matrix.row(i)
        c = row[j]
        held = j in base.bundles[i]
        has_tie = any(row[t] == c for t in range(m) if t != j)
        if ranking_preserving and has_tie:
            continue
        if held:
            if c == 0:
                continue  # cannot decrease further
            floor_ = max((x for x in row if x < c), default=0.0) if ranking_preserving else 0.0
            new = floor_ + (c - floor_) * float(rng.uniform(0.05, 0.95))
        else:
            if ranking_preserving:
                higher = [x for x in row if x > c]
                if higher:
                    new = c + (min(higher) - c) * float(rng.uniform(0.05, 0.95))
                elif c > 0:
                    new = c * float(rng.uniform(1.5, 3.0))
                else:
                    continue
            else:
                if c == 0:
                    continue  # a multiplicative bump keeps 0 at 0
                new = c * float(rng.uniform(1.1, 3.0))
        rows = [list(r) for r in matrix.costs]
        rows[i][j] = new
        after = algorithm(CostMatrix.from_rows(rows))
        if after.bundles[i] != base.bundles[i]:
            return MonotonicityCounterexample(
                agent=i,
                item=j,
                old_cost=c,
                new_cost=new,
                bundle_before=base.bundles[i],
                bundle_after=after.bundles[i],
            )
        done += 1
    return None


# --- lower-bound witnesses -------------------------------------------------------

_WITNESS_PROFILES = (
    (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(3), Fraction(1), Fraction(1), Fraction(1)),
)


def _minmax_two(profile: Sequence[Fraction]) -> Fraction:
    """Exact min-max bundle cost over all 2-partitions of a small profile."""
    m = len(profile)
    best = sum(profile)
    for mask in range(1 << m):
        a = sum(profile[j] for j in range(m) if mask >> j & 1)
        b = sum(profile) - a
        best = min(best, max(a, b))
    return best


def _two_agent_splits(m: int):
    for mask in range(1 << m):
        b1 = frozenset(j for j in range(m) if mask >> j & 1)
        b2 = frozenset(range(m)) - b1
        yield b1, b2


def witness_ordinal_det() -> tuple[Fraction, Allocation]:
    """Best worst-case ratio any deterministic rank-only rule can reach on
    the 2-agent, 4-item family with identical rankings.

    Since such a rule sees only the (shared) ranking, one allocation must
    serve both cardinal profiles (1,1,1,1) and (3,1,1,1); brute force over
    all 16 allocations gives the min-max, which is exactly 4/3.
    """
    shares = [_minmax_two(p) for p in _WITNESS_PROFILES]
    best_value: Optional[Fraction] = None
    best_alloc: Optional[Allocation] = None
    for b1, b2 in _two_agent_splits(4):
        worst = max(
            max(sum(p[j] for j in b1), sum(p[j] for j in b2)) / shares[k]
            for k, p in enumerate(_WITNESS_PROFILES)
        )
        if best_value is None or worst < best_value:
            best_value = worst
            best_alloc = Allocation((b1, b2))
    assert best_value is not None and best_alloc is not None
    return best_value, best_alloc


def _class_ratio_pairs() -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Best per-profile worst-agent ratio inside each allocation class.

    Classes: both bundles of size 2, versus everything else. Both profiles
    share one ranking, so a randomized rank-only rule is exactly a coin flip
    between the best representative of each class.
    """
    shares = [_minmax_two(p) for p in _WITNESS_PROFILES]
    best_two = [None, None]
    best_other = [None, None]
    for b1, b2 in _two_agent_splits(4):
        is_two_two = len(b1) == 2 and len(b2) == 2
        for k, p in enumerate(_WITNESS_PROFILES):
            worst = max(sum(p[j] for j in b1), sum(p[j] for j in b2)) / shares[k]
            slot = best_two if is_two_two else best_other
            if slot[k] is None or worst < slot[k]:
                slot[k] = worst
    return tuple(best_two), tuple(best_other)  # type: ignore[return-value]


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
