"""Mutation gate: each referee must catch a broken library module.

Each mutant is a text edit `(module, old, new)` of the library's source,
with the name of the referee that must catch it. `old` must
occur exactly once, so a refactor that rewrites a pattern fails here and
updates the gate instead of silently skipping the mutant. The edited
source runs as a fresh module of the package, registered in `sys.modules`
while it runs so that its dataclasses resolve.

A referee is a function, a fixed, seeded corpus of its arguments with a
reference's outcome on each, and what of the function's result it compares.
A mutant of one module may be caught by the referee of a function of
another, which then runs from a fresh copy of its own module that calls
the edited module's functions.

oracles.mms_exact_reference referees mms_exact in value, witness and
method, on these rows:
  - rows of test_mms_search.py's five kinds (integers 0..4, half-steps,
    uniform floats, mixed magnitudes, nudged integers) at n 1..6, m 1..12;
  - two-agent rows of eighths with costs a bundle absorbs, where a bundle
    holds exactly the incumbent and the search admits a tie below it, or
    of 15..20 uniform floats, up to the item cap;
  - rows with at most a few more positive items than agents, small tied
    integers and zeros, where LPT's ties and the parking of the zeros
    decide the witness;
  - every agent's row of the four generator families at (n, m) = (3, 14),
    (4, 13) and (5, 12), the sizes the eval benchmark searches at;
  - three- and four-agent rows of 8 to 12 items, where the fit bound
    reads its tables: integers 1..4 times 0.1, whose sums round by the
    order of addition, so the bound's slack decides what it keeps, and
    integers 0..4 times the least subnormal, whose sums are exact and whose
    slack is zero, so the strictness of its cut decides, and where a
    relative slack on the Karmarkar-Karp start rounds to nothing.

On the same rows oracles.mms_exact_reference referees mms_value, the
search for the value alone, in the `repr` of the value. Its mutants end
the tie cut one item early, at a node whose largest load is within the
smallest item of the incumbent, and settle the last item on the heaviest
bundle.

The ordinal model's firewall referees allocate: on seeded matrices of
integer costs 0..3 at n 2..4 and m n+1..11, and then m 1..n, where every
rule gives each agent at most one item, seqpick, roundrobin and
randdecl give one allocation under the ordinal model, on the rank-only
`surrogate_matrix` of the rankings and on the real costs. A rule that
reads more of a row than its ranking, such as a pick that breaks ties
the other way from `model.rank`, fails it on tied rows. (serial_pick's
bundles themselves are refereed by test_serial_pick.py's properties.)

oracles.pick_tree_reference referees pick_tree's leaves, compared as a
set: the agent's serial_pick_reference bundle under each of its m!
strict rankings, since a ranking that puts a leaf's picks first reaches
it. The matrices are of integer costs 0..3 at n 1..4 and m 1..6, with a
seeded agent under seqpick's schedule, roundrobin's sequence or a seeded
sequence of 1..m agents.

oracles.mc_expected_cost_reference referees mc_expected_cost's (mean,
stderr), compared with ==, at trial counts on both sides of one and two
BLOCK edges, on matrices of integer costs 0..3 and on matrices whose last
agent has an item that absorbs each small cost added after it, and on
300-item matrices, whose item indices do not fit a byte; it catches the
deal in algorithms.randdecl_deal as well as the estimator's own sums.

oracles.randdecl_expected_cost_reference referees randdecl_expected_cost,
compared with ==, for every agent of seeded matrices at n 2..4, m 1..9,
whose rows are tied integers 0..3, zeros, tied integers times 1e300 or
rows whose first item absorbs each small cost added after it, and in
whose profiles each agent declares the truth or a seeded set. Its mutant
counts the declarations without the agent's own set.

oracles.enum_expected_cost_reference referees enum_expected_cost, compared
with ==, under randdecl's pooling rule and the inverted one, on
test_referees.py's block-edge rows (n^m >= BLOCK, and an addition order
other than the reference's moves the value) and on seeded matrices of
integer costs 0..3 at n 2..4, m 1..5.

oracles.deviation_search_reference referees sp_check_ordinal's report
(truthful cost, best deviation cost, deviation named, profitable) on
seeded checks at n 2..3 and m n+1..5, and then m 1..n, where the pick
tree and the offer hold at most one item, of integer costs 0..3 or of
distinct floats, under every model with the grid on and off: seqpick,
roundrobin, and dc3 at n = 3, each a Runner of the checked module, so
that the check keys its cache and stops at the cheapest leaf where it
does for the CLI: by the `model.rank` order and the pick tree for seqpick
and roundrobin, by the divider's `model.rank` order and the chooser's
offer for dc3. The tied dc3 cases check the divider. The scan has one
stop, for ranking and grid misreports alike; the stop mutant, which stops
at the first profitable report, changes cardinal checks that stop in the
rankings. Every third check is scaled by 2^-40, which moves no verdict,
since a power of two scales every float sum exactly, but hides every
gain from an absolute tolerance. Forty public-grid checks of the mutants
argmin_assigner and greedy_worst_seqpick, plain callables keyed by the
row itself with no leaves, run every grid row the public filter keeps:
no Runner's check reaches the filter, since under public rankings a
ranking key has one leaf, the truthful bundle, and a dc3 chooser's
truthful pick is already the cheapest on offer. No mutant of the offer
is listed: a dc3 chooser never profits, so no offer, however wrong,
changes a report.
The offer's referees are test_dc3.py's property that a chooser's bundle
lies in its offer and test_verify.py's count of the runs of a passing
chooser check.

oracles.row_problems_reference referees model.row_problems, compared as
the list of messages, on seeded rows of up to 39 floats, ints or both, of
which some hold -0.0 and some are of finite entries between 1e307 and
1.7e308 that sum past the float range, each with up to two entries
replaced by NaN, an infinity, -1, -0.5, a bool or numpy bool, None, a
string, an int past the float range, or a numpy float32 or int64. Its
mutants loosen the whole-row test that admits a valid row before the
entry loop runs: without the finite-sum test, with min >= -1, and with the
exact-type test replaced by isinstance, which admits bools.

oracles.move_rankings_reference referees the moves of monotonicity_check,
compared per item as the set of `model.rank` orders of the rows the check
runs (oracles.moved_rankings), against those a dense sweep of values
reaches, with and without ranking_preserving. The rows are seeded
one-agent rows of up to six entries, half of small integers, halves,
zeros, the least subnormals and the float neighbours of 1 and 2, between
which a gap holds no float or has a midpoint that rounds to an end, and
half of uniform floats. Its mutants drop the raise above the maximum,
drop the tie values, and let a midpoint sit on an end of its gap.

Each unedited module must match its referee on every case, and every
mutant must change at least one.
"""

from __future__ import annotations

import math
import sys
import types
from contextlib import contextmanager
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import choremms
from choremms.algorithms import build_schedule, label_count, label_sets
from choremms.gen import GenSpec, generate
from choremms.model import CostMatrix, Model, rankings, surrogate_matrix
from choremms.verify import BLOCK, algorithm_runner
from mutants import argmin_assigner, greedy_worst_seqpick, inverted_gather
from oracles import (
    ODD_COST_ENTRIES,
    deviation_search_reference,
    enum_expected_cost_reference,
    mc_expected_cost_reference,
    mms_exact_reference,
    move_rankings_reference,
    moved_rankings,
    pick_tree_reference,
    randdecl_expected_cost_reference,
    row_problems_reference,
)

SOURCE_DIR = Path(choremms.__file__).parent

MUTANTS = {
    # the fit bound cuts a node whose exact fits hold the rest
    "margin sign": (
        "mms",
        "if fits < rest[idx] - slack:",
        "if fits < rest[idx] + slack:",
        "mms_exact",
    ),
    # the fit bound counts the closed bundles' room and not the open ones'
    "closed <=": (
        "mms",
        "if load + smallest < best_val:",
        "if load + smallest > best_val:",
        "mms_exact",
    ),
    # a leaf must beat the incumbent; ties below a full bundle are lost
    "strict leaf": (
        "mms",
        "                assign[last] = b\n",
        "                if cur_max >= best_val:\n"
        "                    continue\n"
        "                assign[last] = b\n",
        "mms_exact",
    ),
    # the equal-load test counts the bundle itself (load in loads[:b + 1]),
    # in the interior loop and in the last item's loop
    "loads[:b + 1]": (
        "mms",
        "if first(load) < b:\n                continue  # bundles with equal load",
        "if first(load) <= b:\n                continue  # bundles with equal load",
        "mms_exact",
    ),
    "loads[:b + 1] at the leaf": (
        "mms",
        "if first(load) < b:\n                    continue  # the leaf of an equal",
        "if first(load) <= b:\n                    continue  # the leaf of an equal",
        "mms_exact",
    ),
    # a bundle may reach the incumbent, in the interior loop or at the leaf
    "admits a full bundle": (
        "mms",
        "if new_load >= best_val:\n                continue\n",
        "if new_load > best_val:\n                continue\n",
        "mms_exact",
    ),
    "admits a full bundle at the leaf": (
        "mms",
        "if new_load >= best_val:\n                    continue  # closed",
        "if new_load > best_val:\n                    continue  # closed",
        "mms_exact",
    ),
    "zeros to the lightest bundle": (
        "mms",
        "bundles[loads.index(min(loads)) if len(items) > n else -1].update(zeros)",
        "bundles[loads.index(min(loads))].update(zeros)",
        "mms_exact",
    ),
    # the fill bound's key without the slack: a subset the search sums to
    # below the incumbent, whose table sum rounds past the room, is lost
    "fill key without slack": (
        "mms",
        "key = best_val + slack\n",
        "key = best_val\n",
        "mms_exact",
    ),
    # each table holds the sums of the items after its node's own
    "fill table without its item": (
        "mms",
        "            c = costs[idx]\n"
        "            sums = sorted(sums + [x + c for x in sums])\n"
        "            fills[idx] = sums\n",
        "            fills[idx] = sums\n"
        "            c = costs[idx]\n"
        "            sums = sorted(sums + [x + c for x in sums])\n",
        "mms_exact",
    ),
    # the fill bound cuts a node whose fits add up to exactly the rest
    "fill cut <=": (
        "mms",
        "if fits < rest[idx] - slack:",
        "if fits <= rest[idx] - slack:",
        "mms_exact",
    ),
    # KK's start at its partition's own load: where that partition is
    # optimal the search admits no leaf and keeps LPT's bundles
    "KK start without its slack": (
        "mms",
        "return math.nextafter(heap[0][2][-1] * (1 + 1e-12), math.inf)",
        "return heap[0][2][-1]",
        "mms_exact",
    ),
    # on subnormal loads the factor alone adds nothing, with the same effect
    "KK slack without nextafter": (
        "mms",
        "return math.nextafter(heap[0][2][-1] * (1 + 1e-12), math.inf)",
        "return heap[0][2][-1] * (1 + 1e-12)",
        "mms_exact",
    ),
    # the value search's tie cut one item early: a node whose largest load
    # is within the last item of the incumbent may still hold a better leaf
    "tie cut one item early": (
        "mms",
        "if proven or not witness and cur_max >= best_val:",
        "if proven or not witness and cur_max + smallest >= best_val:",
        "mms_value",
    ),
    # the value search settles the last item on the heaviest bundle
    "last item to the heaviest bundle": (
        "mms",
        "leaf = min(loads) + smallest",
        "leaf = max(loads) + smallest",
        "mms_value",
    ),
    "LPT takes the last least-loaded bundle": (
        "mms",
        "b = loads.index(min(loads))",
        "b = n - 1 - loads[::-1].index(min(loads))",
        "mms_exact",
    ),
    # the free items in one stable ascending sort, which settles ties to
    # the lower index, against `model.rank`: the pick then reads a tied
    # row through more than its ranking
    "serial_pick reversed tie-break": (
        "algorithms",
        "sorted(compress(items, free), key=key, reverse=True)\n            order.reverse()\n",
        "sorted(compress(items, free), key=key)\n",
        "ordinal firewall",
    ),
    # an own turn never takes the last free item
    "pick tree skips a free item": (
        "algorithms",
        "combinations(compress(items, free), len(runs[k]))",
        "combinations(list(compress(items, free))[:-1], len(runs[k]))",
        "pick_tree",
    ),
    # the others' picks between two runs of the agent's turns are played
    # before its run takes its items, not after
    "pick tree others pick first": (
        "algorithms",
        "            for j in picks:\n"
        "                left[j] = 0\n"
        "            later_orders, later_pointers = orders[:], pointers[:]\n"
        "            _play(costs, items, runs[k + 1], left, later_orders, later_pointers, taken)\n",
        "            later_orders, later_pointers = orders[:], pointers[:]\n"
        "            _play(costs, items, runs[k + 1], left, later_orders, later_pointers, taken)\n"
        "            for j in picks:\n"
        "                left[j] = 0\n",
        "pick_tree",
    ),
    # every trial's deal starts at agent 0, not at its drawn start
    "randdecl_deal from agent 0": (
        "algorithms",
        "places += starts.reshape(trials, 1) + dealt[:, :1] - places[:, :1]",
        "places += dealt[:, :1] - places[:, :1]",
        "mc_expected_cost",
    ),
    # the closed form's b_j leaves out the agent's own declarations
    "declarations counted without the agent's own set": (
        "algorithms",
        "    for marked in labels:\n        for j in marked:\n",
        "    for marked in labels[:agent] + labels[agent + 1 :]:\n        for j in marked:\n",
        "randdecl_expected_cost",
    ),
    # the cache key drops the order: every ranking of one multiset of costs
    # shares the truthful report's cost
    "ranking key without the order": (
        "verify",
        "return tuple(descending(row))",
        "return tuple(sorted(row))",
        "sp_check_ordinal",
    ),
    # a deviation is profitable when it undercuts the truth by more than
    # PROFIT_TOL itself, not a PROFIT_TOL share of it
    "absolute profit tolerance": (
        "verify",
        "self.best_deviation_cost < self.truthful_cost * (1.0 - PROFIT_TOL)",
        "self.best_deviation_cost < self.truthful_cost - PROFIT_TOL",
        "sp_check_ordinal",
    ),
    # the scan stops at the first profitable report, ranking or grid row,
    # which need not be as cheap as the cheapest leaf
    "stop at the first profitable report": (
        "verify",
        "            if best <= least:\n                break\n",
        "            if best < truthful_cost:\n                break\n",
        "sp_check_ordinal",
    ),
    # the public filter keeps the rows whose ascending order is the public
    # ranking, which a row of distinct costs never has at m >= 2
    "public filter sorts ascending": (
        "verify",
        'ranks = np.argsort(np.negative(rows), axis=1, kind="stable")',
        'ranks = np.argsort(rows, axis=1, kind="stable")',
        "sp_check_ordinal",
    ),
    # a trial's cost adds the agent's items from the last column down
    "Monte-Carlo columns reversed": (
        "verify",
        "for j in range(m):\n                acc += np.where(held[j], row[j], 0.0)",
        "for j in reversed(range(m)):\n                acc += np.where(held[j], row[j], 0.0)",
        "mc_expected_cost",
    ),
    # the deal's permutation holds item indices in uint8, which wrap past
    # item 255
    "uint8 deal permutation": (
        "verify",
        "items = np.arange(m, dtype=np.min_scalar_type(m - 1))",
        "items = np.arange(m, dtype=np.uint8)",
        "mc_expected_cost",
    ),
    # a trial's cost is numpy's pairwise sum of the agent's columns
    "Monte-Carlo costs by .sum(axis=1)": (
        "verify",
        "            for j in range(m):\n"
        "                acc += np.where(held[j], row[j], 0.0)\n",
        "            acc += np.where(owner == agent, row, 0.0).sum(axis=1)\n",
        "mc_expected_cost",
    ),
    # the whole-row test admits a row whose float sum is NaN or inf: one
    # holding NaN or inf, an int past the float range, or finite entries
    # that sum past it
    "row sum unchecked": (
        "model",
        "if isfinite(total) and min(row, default=0) >= 0:",
        "if min(row, default=0) >= 0:",
        "row_problems",
    ),
    # ... and a row whose least entry is -1
    "row minimum >= -1": (
        "model",
        "min(row, default=0) >= 0",
        "min(row, default=0) >= -1",
        "row_problems",
    ),
    # ... and a row of bools, an int subclass
    "row types by isinstance": (
        "model",
        "if kinds <= {float, int}:",
        "if all(isinstance(c, (int, float)) for c in row):",
        "row_problems",
    ),
    # no item is raised above the row's maximum: an unheld item never
    # reaches the top of the ranking
    "no raise above the maximum": (
        "verify",
        "        mids.append(above)\n",
        "",
        "monotonicity moves",
    ),
    # only the gaps' midpoints: no move ties another entry
    "no tie values": (
        "verify",
        "return side + [x for x in mids if x is not None]",
        "return [x for x in mids if x is not None]",
        "monotonicity moves",
    ),
    # a midpoint that rounds to an end of its gap is kept: it moves nothing,
    # or ties the neighbour a rank-keeping move must stay clear of
    "gap test not strict": (
        "verify",
        "mids = [x if lo < x < hi else None",
        "mids = [x if lo <= x <= hi else None",
        "monotonicity moves",
    ),
    # each block's landings are summed apart and then added to the total
    "enumeration drops the carried total": (
        "verify",
        "costs[0] += total\n            total = float(np.cumsum(costs)[-1])",
        "total += float(np.cumsum(costs)[-1])",
        "enum_expected_cost",
    ),
}


def _kind_rows(rng, count):
    rows = []
    for t in range(count):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 13))
        kind = t % 5
        if kind == 0:
            row = rng.integers(0, 5, m).astype(float)
        elif kind == 1:
            row = rng.integers(0, 9, m) / 2
        elif kind == 2:
            row = rng.uniform(0.0, 1.0, m)
        elif kind == 3:
            row = rng.uniform(0.0, 1.0, m) * 10.0 ** rng.integers(-9, 10, m)
        else:
            row = rng.integers(1, 5, m) + rng.choice([0.0, 1e-15, 1e-14, 1e-13], m)
        rows.append((tuple(row.tolist()), n))
    return rows


def _two_agent_rows(rng, count):
    rows = []
    for t in range(count):
        if t % 2:
            row = rng.uniform(0.0, 1.0, int(rng.integers(15, 21))).tolist()
        else:
            eighths = (rng.integers(1, 17, int(rng.integers(1, 20))) / 8).tolist()
            k = int(rng.integers(1, 4))
            tiny = (rng.uniform(0.1, 1.0, k) * 10.0 ** rng.integers(-300, -15, k)).tolist()
            row = (eighths + tiny)[:20]
        rows.append((tuple(row), 2))
    return rows


def _few_item_rows(rng, count):
    rows = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        positive = rng.integers(1, 4, int(rng.integers(0, n + 3))).astype(float)
        zeros = rng.choice([0.0, -0.0], int(rng.integers(0, 4)))
        row = np.concatenate([positive, zeros])
        rows.append((tuple(rng.permutation(row).tolist()), n))
    return rows


def _fill_rows(rng, count):
    # three and four agents, m from 8 to 12, where the fit tables are read:
    # integers 1..4 times 0.1, whose sums tie in exact arithmetic but round
    # by the order of addition, and integers 0..4 times the least subnormal,
    # whose sums are exact and whose slack rounds to zero
    rows = []
    for t in range(count):
        n = int(rng.integers(3, 5))
        m = int(rng.integers(8, 13))
        unit = 0.1 if t % 2 else 5e-324
        rows.append((tuple((rng.integers(t % 2, 5, m) * unit).tolist()), n))
    return rows


def _family_rows(rng, seeds):
    # every agent's row of the generator families at the benchmarked sizes
    rows = []
    for n, m in ((3, 14), (4, 13), (5, 12)):
        for family in ("uniform", "exponential", "identical_ranking", "correlated"):
            for seed in rng.integers(0, 2**31 - 1, seeds).tolist():
                matrix = generate(GenSpec(family, n, m, seed))
                rows.extend((tuple(matrix.row(i)), n) for i in range(n))
    return rows


def _mms_outcome(res):
    return repr(res.value), res.witness.bundles, res.method


@lru_cache(maxsize=None)
def mms_corpus():
    """The seeded rows with the referee's outcome on each."""
    rng = np.random.default_rng(2019)
    rows = (
        _few_item_rows(rng, 400)
        + _kind_rows(rng, 2000)
        + _two_agent_rows(rng, 500)
        + _family_rows(rng, 3)
        + _fill_rows(rng, 400)
    )
    return tuple(((row, n), _mms_outcome(mms_exact_reference(row, n))) for row, n in rows)


@lru_cache(maxsize=None)
def mms_value_corpus():
    """mms_corpus's rows with the `repr` of the referee's value on each."""
    return tuple((args, expected[0]) for args, expected in mms_corpus())


@lru_cache(maxsize=None)
def firewall_corpus():
    """Seeded tied matrices under each rule the ordinal model accepts, with
    a seed for randdecl; the referee's outcome is agreement on each."""
    rng = np.random.default_rng(2019)
    cases = []
    # 300 with more items than agents, then 90 with at most one item each
    for t in range(390):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 12) if t < 300 else rng.integers(1, n + 1))
        matrix = CostMatrix.from_rows(rng.integers(0, 4, (n, m)).tolist())
        name = ("seqpick", "roundrobin", "randdecl")[t % 3]
        cases.append(((matrix, name, int(rng.integers(0, 2**31 - 1))), True))
    return tuple(cases)


def _firewall(algorithms):
    """Whether `algorithms.allocate` gives one allocation under the ordinal
    model, on the surrogate costs of the rankings and on the real costs."""

    def agree(matrix, name, seed):
        surrogate = surrogate_matrix(rankings(matrix))
        ordinal = algorithms.allocate(matrix, name, Model.ORDINAL, seed)
        return ordinal == algorithms.allocate(surrogate, name, seed=seed) == (
            algorithms.allocate(matrix, name, seed=seed)
        )

    return agree


@lru_cache(maxsize=None)
def pick_tree_corpus():
    """Seeded tied matrices, pick sequences and agents with the referee's
    leaf set."""
    rng = np.random.default_rng(2019)
    cases = []
    for t in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        matrix = CostMatrix.from_rows(rng.integers(0, 4, (n, m)).tolist())
        if t % 3 == 0 and m > n:
            counts = build_schedule(n, m).counts
            sequence = [i for i in reversed(range(n)) for _ in range(counts[i])]
        elif t % 3 == 1:
            sequence = [k % n for k in range(m)]
        else:
            sequence = rng.integers(0, n, int(rng.integers(1, m + 1))).tolist()
        agent = int(rng.integers(0, n))
        cases.append(((matrix, sequence, agent), pick_tree_reference(matrix, sequence, agent)))
    return tuple(cases)


def _absorbing_matrix(rng, n, m):
    # the last agent's item 0 absorbs each small cost added after it, but
    # not their sum: another addition order moves a trial's cost
    rows = rng.random((n, m)).tolist()
    rows[-1] = [1.0] + [6e-17] * (m - 1)
    return CostMatrix.from_rows(rows)


def _labels_with(matrix, rng):
    # the truthful profile, or the last agent declaring other items
    labels = label_sets(matrix)
    if rng.random() < 0.5:
        return labels, None
    k = label_count(matrix.n, matrix.m)
    declared = frozenset(rng.choice(matrix.m, k, replace=False).tolist())
    return labels[:-1] + (declared,), (matrix.n - 1, declared)


@lru_cache(maxsize=None)
def mc_corpus():
    """Seeded matrices at trial counts on both sides of one and two BLOCK
    edges (trial 0 is randdecl; BLOCK + 1 fills one block exactly), and one
    of 300 items at BLOCK + 1 trials, with the referee's (mean, stderr) on
    each."""
    rng = np.random.default_rng(2019)
    cases = []
    for trials in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 2 * BLOCK + 2):
        for t in range(4):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            if t % 2:
                matrix = _absorbing_matrix(rng, n, m)
            else:
                matrix = CostMatrix.from_rows(rng.integers(0, 4, (n, m)).tolist())
            labels, override = _labels_with(matrix, rng)
            seed = int(rng.integers(0, 2**31 - 1))
            expected = mc_expected_cost_reference(matrix, n - 1, seed, trials, override)
            cases.append(((matrix, n - 1, labels, trials, seed), expected))
    # 300 items: item indices past 255 need more than a byte
    matrix = CostMatrix.from_rows(rng.integers(0, 4, (3, 300)).tolist())
    labels, override = _labels_with(matrix, rng)
    seed = int(rng.integers(0, 2**31 - 1))
    expected = mc_expected_cost_reference(matrix, 2, seed, BLOCK + 1, override)
    cases.append(((matrix, 2, labels, BLOCK + 1, seed), expected))
    return tuple(cases)


def _closed_form_row(rng, m):
    # tied integers 0..3, zeros, tied integers times 1e300, or a row whose
    # first item absorbs each small cost added after it
    kind = int(rng.integers(4))
    if kind == 1:
        return [0.0] * m
    if kind == 2:
        return (rng.integers(0, 4, m) * 1e300).tolist()
    if kind == 3:
        return [1.0] + [6e-17] * (m - 1)
    return rng.integers(0, 4, m).tolist()


@lru_cache(maxsize=None)
def closed_form_corpus():
    """Seeded matrices of `_closed_form_row`s at n 2..4 and m 1..9, each
    agent declaring the truth or a seeded set of the canonical size, with
    the referee's expectation for every agent."""
    rng = np.random.default_rng(2019)
    cases = []
    for _ in range(150):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 10))
        matrix = CostMatrix.from_rows([_closed_form_row(rng, m) for _ in range(n)])
        k = label_count(n, m)
        labels = tuple(
            truthful if rng.random() < 0.5 else frozenset(rng.choice(m, k, replace=False).tolist())
            for truthful in label_sets(matrix)
        )
        for agent in range(n):
            expected = randdecl_expected_cost_reference(matrix, agent, labels)
            cases.append(((matrix, agent, labels), expected))
    return tuple(cases)


# every (algorithm, model, grid) kind of check, dc3 under the two models
# that give it costs
SP_CHECK_KINDS = [
    (name, model, include_grid)
    for name in ("seqpick", "roundrobin", "dc3")
    for model in Model
    for include_grid in (False, True)
    if not (name == "dc3" and model is Model.ORDINAL)
]


@lru_cache(maxsize=None)
def sp_check_corpus():
    """Seeded deviation checks, each kind in turn, with the referee's
    report on each."""
    rng = np.random.default_rng(2019)
    cases = []
    # 30 rounds with more items than agents, then 10 with at most one each
    for t in range(40 * len(SP_CHECK_KINDS)):
        name, model, include_grid = SP_CHECK_KINDS[t % len(SP_CHECK_KINDS)]
        n = 3 if name == "dc3" else int(rng.integers(2, 4))
        few = t >= 30 * len(SP_CHECK_KINDS)
        m = int(rng.integers(1, n + 1) if few else rng.integers(n + 1, 6))
        tied = t // len(SP_CHECK_KINDS) % 2
        if tied:
            costs = rng.integers(0, 4, (n, m)).tolist()
        else:
            costs = rng.permutation(np.arange(1, n * m + 1) / (n * m)).reshape(n, m).tolist()
        if t % 3 == 2:
            costs = (np.array(costs) * 2.0**-40).tolist()
        # dc3's divider, agent 1, is the one agent whose report can move its
        # own bundle, and the ties in its report decide its ranking
        agent = 0 if name == "dc3" and tied else int(rng.integers(0, n))
        matrix = CostMatrix.from_rows(costs)
        expected = deviation_search_reference(
            algorithm_runner(name), matrix, agent, model, include_grid
        )
        cases.append(((name, matrix, agent, model, include_grid), expected))
    # plain callables under public rankings with the grid: keyed by the row
    # itself with no leaves, so every grid row the public filter keeps runs
    for t in range(40):
        algorithm = (argmin_assigner, greedy_worst_seqpick)[t % 2]
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        if t // 2 % 2:
            costs = rng.integers(0, 4, (n, m)).tolist()
        else:
            costs = rng.permutation(np.arange(1, n * m + 1) / (n * m)).reshape(n, m).tolist()
        matrix = CostMatrix.from_rows(costs)
        agent = int(rng.integers(0, n))
        expected = deviation_search_reference(
            algorithm, matrix, agent, Model.PUBLIC_RANKING, True
        )
        cases.append(((algorithm, matrix, agent, Model.PUBLIC_RANKING, True), expected))
    return tuple(cases)


def _sp_check(verify):
    """`verify.sp_check_ordinal` on the named algorithm's Runner of
    `verify` itself, which the check recognises by class, or on a plain
    callable."""

    def check(algorithm, *args):
        if isinstance(algorithm, str):
            algorithm = verify.algorithm_runner(algorithm)
        return verify.sp_check_ordinal(algorithm, *args)

    return check


def _report(report):
    return report.truthful_cost, report.best_deviation_cost, report.deviation, report.profitable


# randdecl's pooling rule, and the mutant that inverts it
GATHERS = (lambda item, recipient, labels: item in labels[recipient], inverted_gather)


@lru_cache(maxsize=None)
def enum_corpus():
    """test_referees.py's block-edge rows, where n^m >= BLOCK and each
    addition order moves the value, and seeded matrices of n^m < BLOCK,
    under the default and the inverted pooling rule, with the referee's
    expectation for every agent."""
    rng = np.random.default_rng(2019)
    matrices = []
    for n, m in ((4, 5), (3, 7), (4, 6), (4, 7)):
        rows = [[1e16 * (i + 1)] + [1.0] * (m - 1) for i in range(n)]
        rows[-1] = [0.1 * (j + 1) for j in range(m)]
        matrices.append(CostMatrix.from_rows(rows))
    for _ in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        matrices.append(CostMatrix.from_rows(rng.integers(0, 4, (n, m)).tolist()))
    cases = []
    for matrix in matrices:
        labels, _ = _labels_with(matrix, rng)
        for gather in GATHERS:
            for agent in range(matrix.n):
                expected = enum_expected_cost_reference(matrix, agent, labels, gather)
                cases.append(((matrix, agent, labels, gather), expected))
    return tuple(cases)


@lru_cache(maxsize=None)
def row_corpus():
    """Seeded rows of floats, ints or both, some holding -0.0 and some whose
    finite entries sum past the float range, each with up to two entries
    replaced by ODD_COST_ENTRIES, with the referee's problems for each."""
    rng = np.random.default_rng(2019)
    cases = []
    for t in range(600):
        m = int(rng.integers(0, 40))
        if t % 4 == 3:
            row = rng.uniform(1e307, 1.7e308, m).tolist()
        else:
            row = rng.uniform(0.0, 10.0, m).tolist()
            if t % 4:
                ints = rng.random(m) < 0.5 if t % 4 == 2 else np.ones(m, bool)
                row = [int(c) if whole else c for c, whole in zip(row, ints)]
        if m and t % 3 == 0:
            row[int(rng.integers(m))] = -0.0
        for _ in range(int(rng.integers(0, 3))):
            if m:
                odd = ODD_COST_ENTRIES[int(rng.integers(len(ODD_COST_ENTRIES)))]
                row[int(rng.integers(m))] = odd
        i = int(rng.integers(64))
        cases.append(((row, i), row_problems_reference(row, i)))
    return tuple(cases)


# entries whose gaps hold no float, or one whose midpoint rounds to an end
MOVE_ENTRIES = (0.0, 0.5, 1.0, 2.0, 3.0, 5e-324, 1e-323) + tuple(
    math.nextafter(v, v + d) for v in (1.0, 2.0) for d in (-1.0, 1.0)
)


@lru_cache(maxsize=None)
def move_corpus():
    """Seeded one-agent rows, the items held and the ranking_preserving
    flag, with the referee's rankings for each item."""
    rng = np.random.default_rng(2019)
    cases = []
    for t in range(400):
        m = int(rng.integers(1, 7))
        if t % 2:
            row = rng.uniform(0.0, 4.0, m).tolist()
        else:
            row = [MOVE_ENTRIES[k] for k in rng.integers(0, len(MOVE_ENTRIES), m).tolist()]
        held = frozenset(np.flatnonzero(rng.random(m) < 0.5).tolist())
        preserving = t // 2 % 2 == 1
        cases.append(((row, held, preserving), move_rankings_reference(row, held, preserving)))
    return tuple(cases)


def _moves(verify):
    """What `verify.monotonicity_check` reaches on a row."""
    return lambda row, held, preserving: moved_rankings(
        verify.monotonicity_check, row, held, preserving
    )


# each referee: the function it runs (its name, or what takes the module
# to it) and the module it lives in, its corpus of (arguments, expected
# outcome) pairs, and the outcome of the function's result that is compared
REFEREES = {
    "mms_exact": ("mms_exact", "mms", mms_corpus, _mms_outcome),
    "mms_value": ("mms_value", "mms", mms_value_corpus, repr),
    "ordinal firewall": (_firewall, "algorithms", firewall_corpus, lambda agree: agree),
    "pick_tree": ("pick_tree", "algorithms", pick_tree_corpus, set),
    "mc_expected_cost": ("mc_expected_cost", "verify", mc_corpus, lambda estimate: estimate),
    "randdecl_expected_cost": (
        "randdecl_expected_cost",
        "algorithms",
        closed_form_corpus,
        lambda expectation: expectation,
    ),
    "enum_expected_cost": (
        "enum_expected_cost",
        "verify",
        enum_corpus,
        lambda expectation: expectation,
    ),
    "sp_check_ordinal": (_sp_check, "verify", sp_check_corpus, _report),
    "row_problems": ("row_problems", "model", row_corpus, lambda problems: problems),
    "monotonicity moves": (_moves, "verify", move_corpus, lambda reached: reached),
}


@contextmanager
def _fresh_module(module, source):
    """`source` run as a new module of the package, in sys.modules while
    the caller's block runs."""
    name = f"choremms._gate_{module}"
    fresh = types.ModuleType(name)
    fresh.__package__ = "choremms"
    sys.modules[name] = fresh
    try:
        exec(compile(source, str(SOURCE_DIR / f"{module}.py"), "exec"), fresh.__dict__)
        yield fresh
    finally:
        del sys.modules[name]


@contextmanager
def _edited_function(module, source, referee):
    """The referee's function as it runs with `module`'s source replaced by
    `source`.

    A function of another module runs from a fresh copy of its own module,
    in which each function or class it took from `module` is the edited
    module's one."""
    function, home = REFEREES[referee][:2]
    if isinstance(function, str):
        function = attrgetter(function)
    with _fresh_module(module, source) as edited:
        if home == module:
            yield function(edited)
            return
        with _fresh_module(home, _source(home)) as host:
            for name, value in list(vars(host).items()):
                if getattr(value, "__module__", None) == f"choremms.{module}":
                    setattr(host, name, getattr(edited, name))
            yield function(host)


def differing_rows(module, source, referee, stop_at_first=False):
    """How many of the referee's cases its function, run from `source`,
    gets other than the reference."""
    _, _, corpus, outcome = REFEREES[referee]
    differ = 0
    with _edited_function(module, source, referee) as run:
        for args, expected in corpus():
            if outcome(run(*args)) != expected:
                differ += 1
                if stop_at_first:
                    break
    return differ


def _source(module):
    return (SOURCE_DIR / f"{module}.py").read_text()


def test_unedited_module_matches_the_referee_on_every_row():
    for module, referee in {(module, referee) for module, _, _, referee in MUTANTS.values()}:
        assert differing_rows(module, _source(module), referee) == 0, referee


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(mutant):
    module, old, new, referee = MUTANTS[mutant]
    source = _source(module)
    assert source.count(old) == 1, f"{mutant}: the pattern must occur exactly once"
    assert differing_rows(module, source.replace(old, new), referee, stop_at_first=True) == 1
