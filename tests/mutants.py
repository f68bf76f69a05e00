"""Deliberately broken algorithms used to prove the checkers have teeth.

If the deviation and monotonicity suites cannot catch these, a pass on the
real algorithms means nothing.
"""

from __future__ import annotations

from choremms.algorithms import seqpick
from choremms.model import Allocation, CostMatrix, rankings, surrogate_matrix
from choremms.verify import enum_expected_cost


def greedy_worst_seqpick(matrix: CostMatrix) -> Allocation:
    """seqpick with the greed inverted: every picker takes its most
    expensive remaining items, ties by ascending index. Misreporting the
    ranking is obviously profitable here.

    Surrogate costs built from the reversed rankings make the most
    expensive item the cheapest, so plain seqpick picks in that order."""
    worst_first = surrogate_matrix([order[::-1] for order in rankings(matrix)])
    return seqpick(worst_first)


def argmax_assigner(matrix: CostMatrix) -> Allocation:
    """Assigns every item to whoever hates it most; raising the cost of an
    unheld item can hand it to you, so this is not monotone."""
    bundles: list[set[int]] = [set() for _ in range(matrix.n)]
    for j in range(matrix.m):
        winner = max(range(matrix.n), key=lambda i: (matrix.row(i)[j], -i))
        bundles[winner].add(j)
    return Allocation.from_lists(bundles)


def argmin_assigner(matrix: CostMatrix) -> Allocation:
    """Assigns every item to whoever minds it least, ties by ascending
    agent index; reporting a held item as costlier can shed it, even in
    the public ranking's order, so this is not strategyproof there."""
    bundles: list[set[int]] = [set() for _ in range(matrix.n)]
    for j in range(matrix.m):
        winner = min(range(matrix.n), key=lambda i: (matrix.row(i)[j], i))
        bundles[winner].add(j)
    return Allocation.from_lists(bundles)


def inverted_gather(item: int, recipient: int, labels) -> bool:
    """A randdecl pooling rule turned inside out: an item is pooled when its
    recipient did NOT declare it large."""
    return item not in labels[recipient]


def inverted_pool_expected_cost(matrix: CostMatrix, agent: int, labels) -> float:
    """Expected cost under a randdecl mutant that pools by `inverted_gather`.
    Declaring your cheapest items is then strictly better than the truth,
    so the randomized checker must flag it."""
    return enum_expected_cost(matrix, agent, labels, gather=inverted_gather)
