"""Core domain types: cost matrices, rankings, allocations, evaluation reports.

Conventions used throughout the package:
  - items and agents are 0-indexed internally, 1-indexed in all external
    (JSON / CLI) formats;
  - `descending` is the one cost order, ties by ascending index:
    rankings and the exact share's item order both read it,
    `algorithms.label_sets` is its numpy form, and a greedy pick reads it
    reversed, taking the higher index as the cheaper of two tied items;
  - all-zero cost rows are legal but flagged as degenerate, and the ratio
    convention 0/0 = 1 keeps reports finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite
from numbers import Integral, Real
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
        return cls(tuple(tuple(map(float, row)) for row in rows))


def validate(rows: Sequence[Sequence[float]]) -> list[str]:
    """Check cost-matrix invariants, returning one message per violation.

    Violations are data, not failures: an empty list means the grid is ok.
    Row/column locations in messages are 1-indexed to match the external
    instance format. The grid needs an agent and an item, and rows of one
    length; each row must then be a valid cost row (`row_problems`).
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
        problems += row_problems(row, i)
    return problems


def row_problems(row: Sequence[float], i: int = 0) -> list[str]:
    """What makes `row` no valid cost row, as `validate` words it for row
    i + 1: one message per entry that is no finite nonnegative real (a bool
    is none), or, when every entry is one, one when the row's float sum is
    not finite, since bundle costs and shares are bounded by it. A row of
    no items has no problem.

    A valid row is admitted by one whole-row test: every entry exactly a
    float or an int, as in a JSON grid, a finite float sum (NaN, inf and
    ints past the float range fail it) and no entry below 0. The entry loop
    runs only on a row that fails it, such as one holding a bool or a numpy
    scalar, and words each violation."""
    kinds = set(map(type, row))
    if kinds <= {float, int}:
        try:
            total = sum(map(float, row)) if int in kinds else sum(row)
        except OverflowError:  # an int past the float range
            total = inf
        if isfinite(total) and min(row, default=0) >= 0:
            return []
    problems: list[str] = []
    for j, c in enumerate(row):
        if not is_real(c):
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
    if not problems and not isfinite(sum(map(float, row))):
        problems.append(f"costs of row {i + 1} sum past the float range")
    return problems


def is_int(value) -> bool:
    """An integer, and not a bool, though bool is an int subclass."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, numpy's included, and not a bool, though bool is an
    int subclass (np.bool_ is no Real)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def descending(costs: Sequence[float]) -> list[int]:
    """Item indices in descending cost order, ties by ascending index (a
    reversed sort stays stable)."""
    return sorted(range(len(costs)), key=costs.__getitem__, reverse=True)


def rank(matrix: CostMatrix, agent: int) -> tuple[int, ...]:
    """Agent's ranking: its items in `descending` cost order.

    Position 0 holds the largest-cost (least preferred) item.
    """
    return tuple(descending(matrix.row(agent)))


def rankings(matrix: CostMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(rank(matrix, i) for i in range(matrix.n))


def surrogate_matrix(orders: Sequence[Sequence[int]]) -> CostMatrix:
    """Rank-driven stand-in costs: the item at ranking position k costs m - k.

    The ordinal deviation search reports rankings as these costs. A rule
    the ordinal model accepts gives the same allocation on them as on the
    real costs of those rankings, which the tests check.
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

def read_json(path: str):
    """The JSON document in the file at `path`. One nested too deeply for
    the parser is refused with a ValueError, as malformed JSON is."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON in {path} is nested too deeply to read") from None


def load_instance(path: str) -> CostMatrix:
    """Read a JSON instance {"n": int, "m": int, "costs": [[...], ...]}."""
    return parse_instance(read_json(path))


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
    """The optional "n" and "m" fields that are not integers, or that
    disagree with a valid grid."""
    problems = []
    for key, size, grid in (
        ("n", len(costs), f"costs has {len(costs)} rows"),
        ("m", len(costs[0]), f"rows have {len(costs[0])} entries"),
    ):
        value = doc.get(key, size)
        if not is_int(value):
            problems.append(f'instance "{key}" must be an integer, got {json.dumps(value)}')
        elif value != size:
            problems.append(f'instance "{key}"={value} but {grid}')
    return problems
