"""The four allocation algorithms behind one uniform interface.

All of them take a cost matrix and return a partition of the items:

  - seqpick: agents act in reverse index order, each taking a fixed number
    of its cheapest remaining items (the schedule sizes grow geometrically,
    which is what yields the logarithmic guarantee);
  - randdecl: every item lands on a uniformly random agent, then items that
    landed on an agent who had declared them "large" are pooled and dealt
    back out evenly;
  - roundrobin: agents take turns picking their cheapest remaining item
    (seqpick and roundrobin share one engine, serial_pick, and differ only
    in the pick sequence, which pick_sequence gives);
  - divide_choose_3: three fixed bundles built from agent 1's ranking,
    agents 2 and 3 choose in turn, agent 1 keeps the leftover (its cut and
    its choice, dc3_cut and dc3_choose, also give dc3_offer: every bundle
    a chooser can end with).

Randomness is always owned by the call through an explicit seed; there is
no global generator.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import combinations, compress, groupby
from numbers import Integral
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import Allocation, CostMatrix, Model, rank

logger = logging.getLogger(__name__)

ALGORITHMS = ("seqpick", "randdecl", "roundrobin", "dc3")


# --- serial picking ----------------------------------------------------------

def serial_pick(matrix: CostMatrix, sequence: Sequence[int]) -> Allocation:
    """Serial dictatorship: each entry of `sequence` is an agent, who takes
    its cheapest unassigned item, ties going to the higher index: an agent
    takes its items in `model.rank`'s order reversed.

    seqpick and roundrobin are this rule with different pick sequences. An
    agent sorts the items still free at its first turn, once: items only
    ever leave, so that order stays valid for its later turns. The sequence
    must have at most m entries.
    """
    n, m = matrix.n, matrix.m
    costs = list(matrix.costs)
    # one int object per item, shared by every agent's order
    items = list(range(m))
    free = bytearray(b"\x01") * m
    orders: list[Optional[list[int]]] = [None] * n
    pointers = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    _play(costs, items, sequence, free, orders, pointers, bundles)
    return Allocation.from_lists(bundles)


def _play(
    costs: list[tuple[float, ...]],
    items: list[int],
    turns: Sequence[int],
    free: bytearray,
    orders: list[Optional[list[int]]],
    pointers: list[int],
    bundles: list[list[int]],
) -> None:
    """serial_pick's turns, played on its state in place: `free` marks the
    items not yet taken, `orders[i]` is agent i's sorted items (None before
    its first turn) and `pointers[i]` how far into them it has taken."""
    for i in turns:
        order = orders[i]
        if order is None:
            # a stable descending sort, reversed: `model.rank`'s order of the
            # free items, cheapest first, so ties go to the higher index
            key = costs[i].__getitem__
            order = orders[i] = sorted(compress(items, free), key=key, reverse=True)
            order.reverse()
        p = pointers[i]
        while not free[order[p]]:
            p += 1
        j = order[p]
        free[j] = 0
        pointers[i] = p + 1
        bundles[i].append(j)


def pick_tree(matrix: CostMatrix, sequence: Sequence[int], agent: int) -> Iterator[frozenset[int]]:
    """The leaves of `agent`'s pick tree under `serial_pick(matrix,
    sequence)`: every bundle it can end with, whatever row it reports.

    At each of its turns the agent takes some free item, and every other
    agent picks by its row of `matrix`, through `_play`. Every reported row,
    ties included, yields one of these bundles, and a strict
    ranking that puts a leaf's picks first yields that leaf. A run of the
    agent's consecutive turns takes one set of items, since no other pick
    falls between them; the turns after its last one take nothing from it.
    Leaves come one at a time, so a caller that stops early walks no further.
    """
    n, m = matrix.n, matrix.m
    costs = list(matrix.costs)
    items = list(range(m))
    free = bytearray(b"\x01") * m
    orders: list[Optional[list[int]]] = [None] * n
    pointers = [0] * n
    # the other agents' picks, which no leaf reads
    taken: list[list[int]] = [[] for _ in range(n)]
    turns = [t for t, i in enumerate(sequence) if i == agent]
    if not turns:
        yield frozenset()
        return
    _play(costs, items, sequence[: turns[0]], free, orders, pointers, taken)
    # the agent's runs of turns alternate with the others', from its first
    # turn to its last
    span = sequence[turns[0] : turns[-1] + 1]
    runs = [list(run) for _, run in groupby(span, lambda i: i == agent)]

    # runs[k] is one of the agent's, runs[k + 1] the others' turns after it
    def walk(k, free, orders, pointers, held):
        for picks in combinations(compress(items, free), len(runs[k])):
            if k + 1 == len(runs):
                yield frozenset(held + picks)
                continue
            left = free[:]
            for j in picks:
                left[j] = 0
            later_orders, later_pointers = orders[:], pointers[:]
            _play(costs, items, runs[k + 1], left, later_orders, later_pointers, taken)
            yield from walk(k + 2, left, later_orders, later_pointers, held + picks)

    yield from walk(0, free, orders, pointers, ())


def pick_sequence(
    algorithm: str, n: int, m: int, agent_order: Optional[Sequence[int]] = None
) -> list[int]:
    """The agent of each pick under seqpick or roundrobin on n agents and m
    items. seqpick's agents n, ..., 1 each take their `build_schedule(n, m)`
    count of picks in one run (when m <= n, agents n, ..., n - m + 1 one
    pick each); roundrobin's take one pick each in `agent_order` (default
    ascending), round after round, until m items are picked. The engines
    and the deviation search both read it."""
    if algorithm == "seqpick":
        if m <= n:
            return list(range(n - 1, n - m - 1, -1))
        counts = build_schedule(n, m).counts
        return [i for i in reversed(range(n)) for _ in range(counts[i])]
    if algorithm != "roundrobin":
        raise ValueError(f"{algorithm!r} is no serial-pick rule")
    order = list(range(n)) if agent_order is None else list(agent_order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"agent order {order} is not a permutation of 0..{n - 1}")
    return [order[t % n] for t in range(m)]


# --- sequential picking ----------------------------------------------------

@dataclass(frozen=True)
class PickSchedule:
    """The bundle sizes a_1..a_n used by seqpick (agent n picks first).

    `repaired` is the deficit added to a_n when the raw formula undershoots
    m (which happens outside the large-m/n regime the formula targets).
    """

    counts: tuple[int, ...]
    k_param: float
    repaired: int


@functools.lru_cache(maxsize=256)
def build_schedule(n: int, m: int) -> PickSchedule:
    """Geometric pick schedule: 2 items for the first half of the agents,
    then sizes growing by (1 + K/n) per agent with K = 2*log2(m/n).

    Requires m > n; with m <= n seqpick gives the last m agents one pick
    each, as `pick_sequence` does, and needs no schedule. The schedule is a
    frozen value of (n, m) alone, so it is built once per (n, m) and
    shared: a deviation search and a batch run call seqpick again and again
    on one size.
    """
    if n < 1:
        raise ValueError("agent count must be >= 1")
    if m <= n:
        raise ValueError(
            f"schedule needs m > n (got n={n}, m={m}); at m <= n the last m agents pick once each"
        )
    k = 2.0 * math.log2(m / n)
    half = n // 2
    counts: list[int] = []
    prefix = 0
    for i in range(1, n + 1):
        if i <= half:
            a = 2
        else:
            raw = math.ceil(k * (1.0 + k / n) ** (i - half - 1))
            # clip to the growth cap outright: smaller entries only improve
            # the ratio, and the cap is what the guarantee actually needs
            cap = int(math.floor(k * math.ceil(prefix / n) + 1e-9)) if prefix else raw
            a = min(m - prefix, raw, cap)
        counts.append(a)
        prefix += a
    repaired = m - prefix
    if repaired > 0:
        # The geometric series ran out of agents before covering m items.
        # Hand the deficit to the first picker: it faces all m items, so its
        # per-item greedy cost is the smallest.
        counts[-1] += repaired
        logger.info(
            "schedule deficit repair: n=%d m=%d, added %d items to a_n", n, m, repaired
        )
    return PickSchedule(tuple(counts), k, repaired)


def check_schedule(schedule: PickSchedule, n: int, m: int) -> list[str]:
    """Verify the two schedule obligations, returning violations.

    1. all items are picked: the counts sum to m;
    2. growth cap: every second-half entry satisfies
       a_i <= K * ceil(prefix/n). The deficit-repaired entry is exempt
       (repair happens precisely when the capped formula cannot cover m,
       and it is logged and counted separately).
    """
    problems = []
    if len(schedule.counts) != n:
        return [f"schedule has {len(schedule.counts)} entries, expected {n}"]
    if sum(schedule.counts) != m:
        problems.append(f"schedule covers {sum(schedule.counts)} items, expected {m}")
    half = n // 2
    k = schedule.k_param
    prefix = 0
    for idx, a in enumerate(schedule.counts):
        i = idx + 1
        exempt = idx == n - 1 and schedule.repaired > 0
        if i > half and prefix > 0 and not exempt:
            bound = k * math.ceil(prefix / n)
            if a > bound + 1e-9:
                problems.append(
                    f"a_{i}={a} exceeds growth cap K*ceil(prefix/n)={bound:.6g}"
                )
        prefix += a
    return problems


def seqpick(matrix: CostMatrix) -> Allocation:
    """Agents n, n-1, ..., 1 each grab their a_i cheapest remaining items,
    with a_i from the instance's `build_schedule(n, m)` (when m <= n, agents
    n, ..., n - m + 1 one item each).

    Greedy is each picker's dominant strategy, so this doubles as the
    truthful play of the serial-dictatorship rule the schedule defines.
    """
    return serial_pick(matrix, pick_sequence("seqpick", matrix.n, matrix.m))


# --- randomized declare-and-redistribute ------------------------------------

def label_count(n: int, m: int) -> int:
    """How many items each agent declares large: min(floor(n*sqrt(log2 n)), m)."""
    if n < 2:
        raise ValueError("randdecl needs at least 2 agents")
    return min(int(math.floor(n * math.sqrt(math.log2(n)))), m)


def label_sets(matrix: CostMatrix) -> tuple[frozenset[int], ...]:
    """Truthful labels: each agent's top-K items by cost (canonical ties).

    A stable ascending sort of the negated costs keeps equal costs, both
    zeros included, in ascending index order, as `rank` does. The profile
    is a plain tuple: passed back as `labels`, it is checked like any other.
    """
    k = label_count(matrix.n, matrix.m)
    top = np.argsort(np.negative(matrix.costs), axis=1, kind="stable")[:, :k]
    return tuple(map(frozenset, top.tolist()))


Labels = Sequence[frozenset[int]]


def check_labels(matrix: CostMatrix, labels: Optional[Labels] = None) -> Labels:
    """The truthful `label_sets` when `labels` is None, else `labels` after
    checking one set per agent, of the canonical size, naming only integer
    items 0..m-1 (a bool is no item, a numpy integer is), none twice.
    Every profile is checked this one way, whoever built it."""
    if labels is None:
        return label_sets(matrix)
    n, m = matrix.n, matrix.m
    k = label_count(n, m)
    if len(labels) != n:
        raise ValueError(f"label profile must have {n} sets, got {len(labels)}")
    for declared in labels:
        if len(declared) != k:
            raise ValueError(f"label override must have size {k}, got {len(declared)}")
        for j in declared:
            if type(j) is not int and (type(j) is bool or not isinstance(j, Integral)):
                raise ValueError(f"label item {j!r} is not an integer")
        if len(frozenset(declared)) != k:
            raise ValueError(f"label set {sorted(declared)} names an item twice")
        if not all(0 <= j < m for j in declared):
            raise ValueError(f"label set {sorted(declared)} names an item outside 0..{m - 1}")
    return labels


def label_matrix(labels: Labels, m: int) -> np.ndarray:
    """The profile as an (n, m) boolean matrix: [i, j] is whether agent i
    declared item j large."""
    marks = np.zeros((len(labels), m), dtype=bool)
    for declared, marked in zip(labels, marks):
        marked[list(declared)] = True
    return marks


def randdecl(
    matrix: CostMatrix, seed: int | np.random.Generator, labels: Optional[Labels] = None
) -> Allocation:
    """Random assignment, then even redistribution of declared-large items.

    Phase 1 sends every item to a uniformly random agent. Items that landed
    on an agent who declared them large form the pool M_b. Phase 2 shuffles
    the pool and deals it round-robin from a uniformly random starting
    agent, so shares differ by at most one and each pooled item ends up with
    each agent with probability exactly 1/n. Fully reproducible from `seed`
    (or drawn from it, when it is a numpy Generator). The draws are made
    here; `randdecl_deal` places the items, as one trial.

    `labels` is every agent's declared label set, as in every randdecl
    function here (default: the truthful `label_sets`).
    """
    n, m = matrix.n, matrix.m
    marks = label_matrix(check_labels(matrix, labels), m)
    rng = np.random.default_rng(seed)
    landing = rng.integers(0, n, size=m)
    in_pool = marks[landing, np.arange(m)]
    pooled = np.flatnonzero(in_pool)
    dealt = pooled[rng.permutation(len(pooled))]
    start = rng.integers(0, n)
    # the deal passes over the kept items; each bundle takes its kept items
    # first, in index order, which fixes the order its cost sums add in
    order = np.concatenate([np.flatnonzero(~in_pool), dealt])
    owner = randdecl_deal(marks, landing[None], order[None], np.array([start]))[0].tolist()
    bundles: list[set[int]] = [set() for _ in range(n)]
    for j in order.tolist():
        bundles[owner[j]].add(j)
    return Allocation.from_lists(bundles)


def randdecl_deal(
    labels: np.ndarray, landings: np.ndarray, orders: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """randdecl's placement for T trials at once, given their draws.

    `labels` is the (n, m) `label_matrix` of the declared profile. In trial
    t item j landed on agent `landings[t, j]`; it is pooled when that agent
    declared it large. `orders[t]` is a permutation of the m items, and the
    pooled items are dealt in the order they appear there, the first to
    agent `starts[t]`, the next to `starts[t] + 1` (mod n), and so on;
    unpooled items are passed over and stay where they landed. Returns
    `owner` of shape (T, m): `owner[t, j]` is the agent that gets item j.

    The trials lie end to end in one flat index, item j of trial t at
    t * m + j, and every gather and scatter is a flat `take` or `put` on
    it: `slots` is each trial's order there. One running count over all the trials,
    in deal order, less each trial's count before it and plus its start,
    gives a pooled item's place from its trial's start, and a table of
    `% n` read by `take` turns it into the item's agent. The owners are
    those of a scan of each trial's order, bit for bit.
    """
    n, m = labels.shape
    trials = len(orders)
    # labels[landings[t, j], j]: whether item j is pooled in trial t
    pooled = labels.take(landings.astype(np.intp) * m + np.arange(m))
    slots = orders + np.arange(trials).reshape(trials, 1) * m
    dealt = pooled.take(slots)
    # each pooled item's place (from 1) among the pooled items of every
    # trial so far, made its trial's own and offset by the trial's start:
    # the trial's first count less its first item's own is its count before
    places = dealt.cumsum().reshape(trials, m)
    places += starts.reshape(trials, 1) + dealt[:, :1] - places[:, :1]
    # from start s, place p goes to agent (s + p - 1) % n
    agents = np.arange(-1, m + n - 1) % n
    owner = np.empty((trials, m), dtype=np.intp)
    owner.put(slots, agents.take(places))
    return np.where(pooled, owner, landings)


def randdecl_expected_cost(
    matrix: CostMatrix, agent: int, labels: Optional[Labels] = None
) -> float:
    """Closed-form expected cost of `agent` under randdecl when the agents
    declare `labels` (default: truthfully).

    Decomposes as the phase-1 keep term (1/n of the agent's non-declared
    costs) plus 1/n of the expected pooled cost, where item j enters the
    pool with probability b_j/n (b_j = how many agents declared j large).
    The b_j are counted in one pass over the profile's declarations, and
    both sums add their terms in ascending item order, so the value is
    the one a membership test per agent and item gives, bit for bit.
    """
    n, m = matrix.n, matrix.m
    labels = check_labels(matrix, labels)
    row = matrix.row(agent)
    mine = labels[agent]
    declared = [0] * m
    for marked in labels:
        for j in marked:
            declared[j] += 1
    phase1 = sum(c for j, c in enumerate(row) if j not in mine) / n
    pool_exp = sum(map(mul, row, declared)) / n
    return phase1 + pool_exp / n


# --- round robin -------------------------------------------------------------

def roundrobin(matrix: CostMatrix, agent_order: Optional[Sequence[int]] = None) -> Allocation:
    """Agents take turns (in `agent_order`, default ascending) picking the
    cheapest remaining item by their own row."""
    return serial_pick(matrix, pick_sequence("roundrobin", matrix.n, matrix.m, agent_order))


# --- divide and choose for three agents --------------------------------------

def divide_choose_3(matrix: CostMatrix) -> Allocation:
    """Three fixed bundles cut along agent 1's ranking; agents 2 then 3 take
    their cheapest available bundle, agent 1 keeps the last one.

    The cut is `dc3_cut` and each choice `dc3_choose`, which `dc3_offer`
    shares to tell a chooser every bundle it can end with.
    """
    n = matrix.n
    if n != 3:
        raise ValueError(f"dc3 requires n=3 (got n={n})")
    bundles = dc3_cut(rank(matrix, 0))
    pick2 = dc3_choose(matrix.row(1), bundles, [0, 1, 2])
    left = [b for b in (0, 1, 2) if b != pick2]
    pick3 = dc3_choose(matrix.row(2), bundles, left)
    pick1 = next(b for b in left if b != pick3)
    return Allocation.from_lists([bundles[pick1], bundles[pick2], bundles[pick3]])


def dc3_cut(order: Sequence[int]) -> list[set[int]]:
    """dc3's three bundles along the divider's ranking `order` (descending,
    as `model.rank` gives it): the top item alone, the even positions, and
    the remaining odd positions."""
    return [
        {order[0]},
        {order[pos] for pos in range(1, len(order), 2)},
        {order[pos] for pos in range(2, len(order), 2)},
    ]


def dc3_choose(row: Sequence[float], bundles: Sequence[set[int]], available: list[int]) -> int:
    """The chooser's pick among the `available` bundles: the cheapest by its
    `row`, ties going to the lower bundle index."""
    return min(available, key=lambda b: (sum(row[j] for j in bundles[b]), b))


def dc3_offer(matrix: CostMatrix, agent: int) -> list[frozenset[int]]:
    """The bundles divide_choose_3 on `matrix` offers the chooser of index
    `agent` (1 or 2), whatever row it reports: all three to the first
    chooser, and to the second the two that the first one's row leaves. A
    chooser's report moves neither the cut nor an earlier pick."""
    bundles = dc3_cut(rank(matrix, 0))
    available = [0, 1, 2]
    if agent == 2:
        available.remove(dc3_choose(matrix.row(1), bundles, available))
    return [frozenset(bundles[b]) for b in available]


# --- dispatcher ----------------------------------------------------------------

def check_algorithm(name: str, model: Model = Model.CARDINAL) -> None:
    """Refuse a name outside ALGORITHMS, and dc3 under the ordinal model."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    if name == "dc3" and model is Model.ORDINAL:
        raise ValueError("dc3 compares bundle costs, which the ordinal model withholds")


def allocate(
    matrix: CostMatrix,
    algorithm: str,
    model: Model = Model.CARDINAL,
    seed: Optional[int] = None,
    agent_order: Optional[Sequence[int]] = None,
) -> Allocation:
    """Run one of the four algorithms on an instance.

    Every rule runs at every size: when m <= n each gives every agent at
    most one item, which is within its maximin share. Every model hands the
    rule the reported costs: under the ordinal model seqpick, roundrobin
    and randdecl read a row only through its ranking (a tested property),
    and dc3, which compares bundle costs, is refused; public rankings only
    narrow the misreports a deviation search tries.
    """
    check_algorithm(algorithm, model)
    if algorithm == "randdecl" and seed is None:
        raise ValueError("randdecl requires a seed")
    if algorithm == "seqpick":
        return seqpick(matrix)
    if algorithm == "randdecl":
        return randdecl(matrix, seed)
    if algorithm == "roundrobin":
        return roundrobin(matrix, agent_order)
    return divide_choose_3(matrix)
