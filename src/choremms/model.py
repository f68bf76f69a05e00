"""Core domain types: cost matrices, rankings, allocations, evaluation reports.

Conventions used throughout the package:
  - items and agents are 0-indexed internally, 1-indexed in all external
    (JSON / CLI) formats;
  - cost ties go by item index, in two opposite readings: `rank` counts
    the lower index as the costlier item, a greedy pick as the cheaper one
    (a known defect under public-ranking grid reports, pinned by the strict
    xfail `test_spcheck_public_grid_tie_is_not_profitable`);
  - all-zero cost rows are legal but flagged as degenerate, and the ratio
    convention 0/0 = 1 keeps reports finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import isfinite
from numbers import Real
from typing import Iterable, Sequence


class Model(Enum):
    """Which information the allocation algorithm is allowed to consume."""

    CARDINAL = "cardinal"
    ORDINAL = "ordinal"
    PUBLIC_RANKING = "public"


@dataclass(frozen=True)
class CostMatrix:
    """An n x m grid of nonnegative chore costs, one row per agent."""

    costs: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    def row(self, agent: int) -> tuple[float, ...]:
        if not 0 <= agent < self.n:
            raise IndexError(f"agent {agent} out of range [0, {self.n})")
        return self.costs[agent]

    def cost_of(self, agent: int, items: Iterable[int]) -> float:
        row = self.row(agent)
        return sum(row[j] for j in items)

    def degenerate_agents(self) -> list[int]:
        """Agents whose row is all-zero (allowed, but worth flagging)."""
        return [i for i, row in enumerate(self.costs) if all(c == 0 for c in row)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]], check: bool = True) -> "CostMatrix":
        if check:
            problems = validate(rows)
            if problems:
                raise ValueError("invalid cost matrix: " + "; ".join(problems))
        return cls(tuple(tuple(float(c) for c in row) for row in rows))


def validate(rows: Sequence[Sequence[float]]) -> list[str]:
    """Check cost-matrix invariants, returning one message per violation.

    Violations are data, not failures: an empty list means the grid is ok.
    Row/column locations in messages are 1-indexed to match the external
    instance format. Every cost must be a finite float, and so must every
    row's sum, which bundle costs and shares are bounded by.
    """
    problems: list[str] = []
    if len(rows) < 1:
        problems.append("agent count must be >= 1")
        return problems
    m = len(rows[0])
    if m < 1:
        problems.append("item count must be >= 1")
    for i, row in enumerate(rows):
        if len(row) != m:
            problems.append(
                f"dimension mismatch: row {i + 1} has {len(row)} entries, expected {m}"
            )
            continue
        found = len(problems)
        for j, c in enumerate(row):
            # Any real number is a cost (numpy's too), but a bool is not,
            # though it is an int subclass (np.bool_ is no Real). A JSON
            # grid holds only ints and floats, so exact-type tests settle
            # most entries first, on a loop that sees every entry of large
            # files.
            t = type(c)
            if t is not float and t is not int:
                if t is bool or not isinstance(c, Real):
                    problems.append(f"non-numeric cost at ({i + 1},{j + 1})")
                    continue
            if c < 0:
                problems.append(f"negative cost at ({i + 1},{j + 1})")
                continue
            try:
                if not isfinite(c):  # NaN or +inf
                    problems.append(f"non-finite cost at ({i + 1},{j + 1})")
            except OverflowError:  # an int past the float range
                problems.append(f"cost at ({i + 1},{j + 1}) is too large for a float")
        # every entry converts to a finite float by now; bundle costs and
        # shares are float sums, so the row's float sum must be finite too
        if len(problems) == found and not isfinite(sum(map(float, row))):
            problems.append(f"costs of row {i + 1} sum past the float range")
    return problems


def rank(matrix: CostMatrix, agent: int) -> tuple[int, ...]:
    """Agent's ranking: item indices in descending cost order, ties by index.

    Position 0 holds the largest-cost (least preferred) item. A reversed
    sort stays stable, so equal costs keep ascending index order.
    """
    row = matrix.row(agent)
    return tuple(sorted(range(len(row)), key=row.__getitem__, reverse=True))


def rankings(matrix: CostMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(rank(matrix, i) for i in range(matrix.n))


def surrogate_matrix(orders: Sequence[Sequence[int]]) -> CostMatrix:
    """Rank-driven stand-in costs: the item at ranking position k costs m - k.

    Handing ordinal algorithms a surrogate matrix instead of the real one
    enforces the information firewall: they cannot react to cardinal
    magnitudes they are not entitled to see.
    """
    rows = []
    for order in orders:
        m = len(order)
        row = [0.0] * m
        for pos, j in enumerate(order):
            row[j] = float(m - pos)
        rows.append(row)
    return CostMatrix.from_rows(rows)


@dataclass(frozen=True)
class Allocation:
    """A partition of the items into one bundle per agent."""

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, bundles: Iterable[Iterable[int]]) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles))

    def check_partition(self, m: int) -> list[str]:
        """Partition invariant: bundles disjoint, union = all m items."""
        problems = []
        seen: set[int] = set()
        for i, bundle in enumerate(self.bundles):
            overlap = seen & bundle
            if overlap:
                problems.append(f"items {sorted(overlap)} assigned more than once")
            seen |= bundle
        missing = set(range(m)) - seen
        if missing:
            problems.append(f"items {sorted(missing)} unassigned")
        extra = seen - set(range(m))
        if extra:
            problems.append(f"unknown items {sorted(extra)}")
        return problems


def ratio_of(cost: float, mms: float) -> float:
    """Approximation ratio with the degenerate convention 0/0 = 1."""
    if mms > 0:
        return cost / mms
    if cost == 0:
        return 1.0
    return float("inf")


@dataclass(frozen=True)
class AgentEval:
    cost: float
    mms: float
    ratio: float


@dataclass(frozen=True)
class EvalReport:
    """Per-agent cost / maxmin-share / ratio summary for one allocation."""

    per_agent: tuple[AgentEval, ...]
    max_ratio: float

    def to_jsonable(self) -> dict:
        return {
            "per_agent": [
                {"agent": i + 1, "cost": a.cost, "mms": a.mms, "ratio": a.ratio}
                for i, a in enumerate(self.per_agent)
            ],
            "max_ratio": self.max_ratio,
        }


# --- instance file format ------------------------------------------------

def load_instance(path: str) -> CostMatrix:
    """Read a JSON instance {"n": int, "m": int, "costs": [[...], ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    return parse_instance(doc)


def instance_costs(doc) -> list:
    """The "costs" grid of a parsed instance document, checked for shape
    only: the document must be an object and the grid a list of lists."""
    if not isinstance(doc, dict):
        raise ValueError(f"instance must be a JSON object, not {type(doc).__name__}")
    costs = doc.get("costs")
    if costs is None:
        raise ValueError('instance is missing "costs"')
    if not isinstance(costs, list) or not all(isinstance(row, list) for row in costs):
        raise ValueError('instance "costs" must be a list of rows, each a list of costs')
    return costs


def parse_instance(doc: dict) -> CostMatrix:
    costs = instance_costs(doc)
    problems = validate(costs)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    problems = header_problems(doc, costs)
    if problems:
        raise ValueError(problems[0])
    return CostMatrix.from_rows(costs, check=False)


def header_problems(doc: dict, costs: list) -> list[str]:
    """The optional "n" and "m" fields that disagree with a valid grid."""
    problems = []
    if "n" in doc and doc["n"] != len(costs):
        problems.append(f'instance "n"={doc["n"]} but costs has {len(costs)} rows')
    if "m" in doc and doc["m"] != len(costs[0]):
        problems.append(f'instance "m"={doc["m"]} but rows have {len(costs[0])} entries')
    return problems
