"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs). Every criterion states its tolerance inline; none of them may
be loosened to make a red bar green.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from choremms.algorithms import allocate, build_schedule, check_schedule
from choremms.gen import GenSpec, rows_to_csv, run_batch
from choremms.mms import evaluate, mms_bounds, mms_exact
from choremms.model import CostMatrix, Model, ratio_of
from choremms.verify import (
    algorithm_runner,
    enum_expected_cost,
    monotonicity_check,
    sp_check_ordinal,
    sp_check_randomized,
    witness_ordinal_det,
    witness_ordinal_rand,
)
from choremms.algorithms import randdecl, randdecl_expected_cost
from mutants import argmax_assigner, greedy_worst_seqpick, inverted_pool_expected_cost
from oracles import mms_bruteforce, strip_runtime


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def uniform_instance(rng, n, m):
    return CostMatrix.from_rows(rng.uniform(0.01, 1.0, (n, m)).tolist())


def test_criterion_01_mms_oracle_equivalence():
    # 1,000 seeded instances, n in {2,3}, m <= 8; agree within 1e-12; < 30 s
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 9))
        row = tuple(rng.uniform(0.0, 1.0, m))
        got = mms_exact(row, n).value
        want = mms_bruteforce(row, n)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (oracle equivalence)",
        worst <= 1e-12 and elapsed < 30.0,
        f"max |diff| = {worst:.2e} over 1000 instances in {elapsed:.1f}s",
    )


def test_criterion_02_known_mms_values():
    values = (
        mms_exact((3, 1, 1, 1), 2).value,
        mms_exact((1, 1, 1, 1), 2).value,
        mms_exact((1, 1, 1, 1, 1, 1), 2).value,
    )
    report(
        "criterion 2 (known share values)",
        values == (3, 2, 3),
        f"got {values}, expected (3, 2, 3)",
    )


def test_criterion_03_roundrobin_bound():
    # 2,000 instances, n in 2..6, m <= 14: max_ratio <= 2 - 1/n + 1e-9; < 2 min
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst_slack = -math.inf
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 15))
        inst = uniform_instance(rng, n, m)
        r = evaluate(allocate(inst, "roundrobin"), inst).max_ratio
        worst_slack = max(worst_slack, r - (2 - 1 / n))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (roundrobin 2-1/n bound)",
        worst_slack <= 1e-9 and elapsed < 120.0,
        f"worst ratio excess over 2-1/n = {worst_slack:.2e} in {elapsed:.1f}s",
    )


def test_criterion_04_dc3_bound():
    # 1,000 instances, n=3, m <= 12: max_ratio <= 1.5 + 1e-9
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        inst = uniform_instance(rng, 3, m)
        worst = max(worst, evaluate(allocate(inst, "dc3"), inst).max_ratio)
    report(
        "criterion 4 (divide-and-choose 1.5 bound)",
        worst <= 1.5 + 1e-9,
        f"worst max_ratio = {worst:.6f} over 1000 n=3 instances",
    )


def test_criterion_05_schedule_obligations():
    # full sweep 2 <= n <= 64, n < m <= 4096: items covered, growth bounded
    violations = 0
    checked = 0
    repairs = 0
    for n in range(2, 65):
        for m in range(n + 1, 4097):
            s = build_schedule(n, m)
            checked += 1
            repairs += s.repaired > 0
            if sum(s.counts) != m or check_schedule(s, n, m):
                violations += 1
    report(
        "criterion 5 (pick-schedule obligations)",
        violations == 0,
        f"{checked} schedules, {violations} violations, "
        f"{repairs} deficit-repair events",
    )


def test_criterion_06_seqpick_envelope():
    # n in 2..6, n < m <= 14: max_ratio <= 4 * (log2(m/n) + 2)
    rng = np.random.default_rng(1006)
    worst_margin = -math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 15))
        inst = uniform_instance(rng, n, m)
        r = evaluate(allocate(inst, "seqpick"), inst).max_ratio
        worst_margin = max(worst_margin, r - 4 * (math.log2(m / n) + 2))
    report(
        "criterion 6 (seqpick log envelope)",
        worst_margin <= 0.0,
        f"worst ratio minus envelope = {worst_margin:.3f} over 1000 instances",
    )


def test_criterion_07_strategyproofness_suites():
    # deterministic: 200 instances, n <= 3, m <= 6, all m! misreports;
    # randomized: 50 instances, n=2, m <= 5, exact mode; mutants caught; < 5 min
    rng = np.random.default_rng(1007)
    t0 = time.perf_counter()
    profitable = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, 7))
        inst = uniform_instance(rng, n, m)
        for agent in range(n):
            if sp_check_ordinal(
                algorithm_runner("seqpick"), inst, agent, model=Model.ORDINAL
            ).profitable:
                profitable += 1
            for name in ("roundrobin", "dc3"):
                if name == "dc3" and n != 3:
                    continue
                if sp_check_ordinal(
                    algorithm_runner(name), inst, agent, model=Model.PUBLIC_RANKING
                ).profitable:
                    profitable += 1
    for _ in range(50):
        m = int(rng.integers(3, 6))
        inst = uniform_instance(rng, 2, m)
        for agent in range(2):
            if sp_check_randomized(inst, agent, mode="exact").profitable:
                profitable += 1
    bait_det = CostMatrix.from_rows([[9, 8, 1, 1], [1, 1, 8, 9]])
    mutant_det_caught = any(
        sp_check_ordinal(greedy_worst_seqpick, bait_det, a, model=Model.ORDINAL).profitable
        for a in range(2)
    )
    bait_rand = uniform_instance(np.random.default_rng(7007), 2, 4)
    mutant_rand_caught = sp_check_randomized(
        bait_rand, 0, mode="exact", expected_cost=inverted_pool_expected_cost
    ).profitable
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7 (strategyproofness suites)",
        profitable == 0 and mutant_det_caught and mutant_rand_caught and elapsed < 300.0,
        f"{profitable} profitable deviations, deterministic mutant caught="
        f"{mutant_det_caught}, randomized mutant caught={mutant_rand_caught}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_closed_form_agreement():
    # closed-form expectation vs full enumeration within 1e-9 at n=2, m <= 5
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        inst = uniform_instance(rng, 2, m)
        for agent in range(2):
            worst = max(
                worst,
                abs(
                    randdecl_expected_cost(inst, agent)
                    - enum_expected_cost(inst, agent)
                ),
            )
    report(
        "criterion 8 (closed-form expectation agreement)",
        worst <= 1e-9,
        f"max |closed form - enumeration| = {worst:.2e} over 100 instances",
    )


def test_criterion_09_lower_bound_witnesses():
    t0 = time.perf_counter()
    det_value, _ = witness_ordinal_det()
    rand_value, p_star = witness_ordinal_rand()
    elapsed = time.perf_counter() - t0
    ok = (
        det_value == Fraction(4, 3)
        and rand_value == Fraction(6, 5)
        and p_star == Fraction(3, 5)
        and elapsed < 1.0
    )
    report(
        "criterion 9 (lower-bound witnesses)",
        ok,
        f"det={det_value}, rand={rand_value} at p*={p_star}, {elapsed:.2f}s",
    )


def test_criterion_10_monotonicity():
    # every single-entry move per deterministic algorithm, one per ranking
    # position it reaches (the rank-keeping one under ranking_preserving),
    # zero bundle changes
    rng = np.random.default_rng(1010)
    inst = uniform_instance(rng, 3, 8)
    holds = (
        monotonicity_check(algorithm_runner("seqpick"), inst) is None
        and monotonicity_check(algorithm_runner("roundrobin"), inst, ranking_preserving=True)
        is None
        and monotonicity_check(algorithm_runner("dc3"), inst, ranking_preserving=True)
        is None
    )
    mutant_caught = any(
        monotonicity_check(argmax_assigner, uniform_instance(rng, 3, 7)) is not None
        for _ in range(5)
    )
    report(
        "criterion 10 (monotonicity)",
        holds and mutant_caught,
        f"every single-entry move per algorithm clean={holds}, mutant caught={mutant_caught}",
    )


def test_criterion_11_batch_reproducibility():
    specs = [
        GenSpec("uniform", n=3, m=9, seed=501),
        GenSpec("correlated", n=4, m=10, seed=502, rho=0.7),
    ]
    algs = ["seqpick", "roundrobin", "randdecl"]
    rows1, _ = run_batch(specs, algs, seeds_per_spec=4, workers=1)
    rows2, _ = run_batch(specs, algs, seeds_per_spec=4, workers=4)
    a = strip_runtime(rows_to_csv(rows1))
    b = strip_runtime(rows_to_csv(rows2))
    report(
        "criterion 11 (batch reproducibility)",
        a == b,
        f"CSV minus runtime byte-identical across serial and 4-worker runs: {a == b}",
    )


def test_randdecl_sanity_sweep():
    # asymptotic expected-ratio claims are out of desk reach; instead the
    # empirical mean max-ratio against the share lower bound must stay small
    worst_mean = 0.0
    for n in (4, 8, 16):
        m = n * math.ceil(math.log2(n)) * 4
        rng = np.random.default_rng(2000 + n)
        inst = uniform_instance(rng, n, m)
        lower = [mms_bounds(inst.row(i), n)[0] for i in range(n)]
        ratios = []
        for seed in range(200):
            alloc = randdecl(inst, seed)
            ratios.append(
                max(
                    ratio_of(inst.cost_of(i, alloc.bundles[i]), lower[i])
                    for i in range(n)
                )
            )
        worst_mean = max(worst_mean, sum(ratios) / len(ratios))
    report(
        "randomized-allocation sanity sweep",
        worst_mean < 10.0,
        f"largest mean max-ratio vs lower bound = {worst_mean:.3f} (< 10 required)",
    )
