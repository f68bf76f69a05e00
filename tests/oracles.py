"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own search code: the maxmin-share
oracle enumerates every set partition via restricted-growth assignments and
takes the min-max directly, and the serial-pick oracle rescans every
remaining item at every pick.
"""

from __future__ import annotations

from typing import Sequence


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


def serial_pick_reference(matrix, sequence: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Bundles when each agent of `sequence` in turn takes the remaining
    item that is smallest by (its cost, index)."""
    costs = matrix.costs
    remaining = set(range(len(costs[0])))
    bundles: list[set[int]] = [set() for _ in costs]
    for i in sequence:
        j = min(remaining, key=lambda t: (costs[i][t], t))
        bundles[i].add(j)
        remaining.remove(j)
    return tuple(frozenset(b) for b in bundles)
