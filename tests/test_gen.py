from dataclasses import replace

import numpy as np
import pytest

from choremms import gen, mms
from choremms.algorithms import allocate
from choremms.gen import (
    CSV_COLUMNS,
    BatchFailure,
    GenSpec,
    generate,
    rows_to_csv,
    run_batch,
    specs_from_config,
)
from choremms.mms import MmsCapError, evaluate, mms_table
from choremms.model import Allocation, rankings
from oracles import strip_runtime


def test_uniform_family_range_and_shape():
    spec = GenSpec("uniform", n=3, m=8, seed=5, lo=0.2, hi=0.9)
    inst = generate(spec)
    assert inst.n == 3 and inst.m == 8
    assert all(0.2 <= c <= 0.9 for row in inst.costs for c in row)


def test_exponential_family_nonnegative():
    inst = generate(GenSpec("exponential", n=2, m=30, seed=7, rate=2.0))
    assert all(c >= 0 for row in inst.costs for c in row)


def test_identical_ranking_family_shares_one_order():
    inst = generate(GenSpec("identical_ranking", n=4, m=9, seed=11))
    orders = rankings(inst)
    assert len(set(orders)) == 1


def test_correlated_family_extremes():
    # rho=1 collapses to identical rows, rho=0 to independent ones
    same = generate(GenSpec("correlated", n=3, m=6, seed=13, rho=1.0))
    assert len(set(same.costs)) == 1
    free = generate(GenSpec("correlated", n=3, m=6, seed=13, rho=0.0))
    assert len(set(free.costs)) == 3


def test_fixture_family():
    inst = generate(GenSpec("fixture", n=2, m=4, seed=0, name="cardinal_43", index=1))
    assert inst.row(0) == (1.0, 3.0, 1.0, 1.0)


def test_fixture_index_out_of_range_is_a_skipped_cell():
    for index in (3, -1):
        spec = GenSpec("fixture", n=2, m=4, seed=0, name="cardinal_43", index=index)
        reason = f"fixture 'cardinal_43' has instances 0..2, not {index}"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            generate(spec)
        rows, failures = run_batch([spec], ["seqpick"], seeds_per_spec=1)
        assert rows == [] and [f.reason for f in failures] == [reason]


def test_generate_determinism_and_seed_sensitivity():
    a = generate(GenSpec("uniform", n=3, m=5, seed=42))
    b = generate(GenSpec("uniform", n=3, m=5, seed=42))
    c = generate(GenSpec("uniform", n=3, m=5, seed=43))
    assert a == b
    assert a != c


def test_generate_validates_parameters():
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec("gaussian", n=2, m=3, seed=0))
    with pytest.raises(ValueError, match="lo <= hi"):
        generate(GenSpec("uniform", n=2, m=3, seed=0, lo=2.0, hi=1.0))
    with pytest.raises(ValueError, match="rate"):
        generate(GenSpec("exponential", n=2, m=3, seed=0, rate=0.0))
    with pytest.raises(ValueError, match="rho"):
        generate(GenSpec("correlated", n=2, m=3, seed=0, rho=1.5))
    with pytest.raises(ValueError, match=">= 1"):
        generate(GenSpec("uniform", n=0, m=3, seed=0))


def test_run_batch_row_counts_and_order():
    specs = [
        GenSpec("uniform", n=3, m=7, seed=100),
        GenSpec("exponential", n=2, m=6, seed=200),
    ]
    rows, failures = run_batch(specs, ["seqpick", "roundrobin"], seeds_per_spec=3)
    assert failures == []
    assert len(rows) == 2 * 2 * 3
    keys = [r[:5] for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row[5] >= 0.0  # max_ratio
        assert row[6] >= 0.0  # runtime_ms


def test_run_batch_skips_bad_cells():
    # dc3 needs n=3; the n=2 spec fails per cell but the batch keeps going
    specs = [GenSpec("uniform", n=2, m=5, seed=1), GenSpec("uniform", n=3, m=5, seed=2)]
    rows, failures = run_batch(specs, ["dc3"], seeds_per_spec=2)
    assert len(rows) == 2
    assert len(failures) == 2
    assert all("n=3" in f.reason for f in failures)


def test_run_batch_solves_each_share_once_per_instance(monkeypatch):
    solved = []
    real = mms.mms_value

    def counting(row, n):
        solved.append((tuple(row), n))
        return real(row, n)

    monkeypatch.setattr(mms, "mms_value", counting)
    specs = [GenSpec("uniform", n=3, m=7, seed=5), GenSpec("exponential", n=2, m=8, seed=6)]
    rows, failures = run_batch(specs, ["seqpick", "randdecl", "roundrobin"], seeds_per_spec=2)
    assert failures == [] and len(rows) == 3 * 2 * 2
    assert len(solved) == (3 + 2) * 2  # agents x instances, not x algorithms too
    assert len(set(solved)) == len(solved)


def _cell_by_cell(specs, algorithms, seeds_per_spec):
    """The batch's contract, one allocate + evaluate per cell."""
    rows, failures = [], []
    for spec in specs:
        for alg in algorithms:
            for k in range(seeds_per_spec):
                seed = spec.seed + k
                try:
                    inst = generate(replace(spec, seed=seed))
                    report = evaluate(allocate(inst, alg, seed=seed), inst)
                except (MmsCapError, ValueError) as exc:
                    failures.append(BatchFailure(spec, alg, seed, str(exc)))
                    continue
                rows.append((spec.label(), spec.n, spec.m, alg, seed, report.max_ratio))
    return sorted(rows), failures


@pytest.mark.parametrize("workers", [1, 3])
def test_run_batch_failures_match_cell_by_cell(workers):
    # dc3 at n=2 fails its precondition; m=21 above the cap fails every cell
    # that allocates, dc3 at n=3 included; the m=7 specs run clean
    specs = [
        GenSpec("uniform", n=2, m=7, seed=1),
        GenSpec("correlated", n=3, m=21, seed=2),
        GenSpec("uniform", n=2, m=21, seed=3),
        GenSpec("exponential", n=3, m=7, seed=4),
    ]
    algorithms = ["dc3", "seqpick", "roundrobin", "randdecl"]
    rows, failures = run_batch(specs, algorithms, 2, workers=workers)
    want_rows, want_failures = _cell_by_cell(specs, algorithms, 2)
    assert [r[:6] for r in rows] == want_rows
    assert failures == want_failures
    assert {f.reason for f in failures} == {
        "dc3 requires n=3 (got n=2)",
        "21 items exceeds the exact-computation cap of 20; use mms_bounds",
    }


@pytest.mark.parametrize("workers", [1, 3])
def test_run_batch_raises_on_a_non_partition(monkeypatch, workers):
    # a broken allocation is a bug, not a skipped cell
    def drops_last_item(matrix, algorithm, **kwargs):
        bundles = allocate(matrix, algorithm, **kwargs).bundles
        return Allocation(bundles[:-1] + (bundles[-1] - {matrix.m - 1},))

    monkeypatch.setattr(gen, "allocate", drops_last_item)
    specs = [GenSpec("identical_ranking", n=3, m=7, seed=1)]
    with pytest.raises(ValueError, match="^not a partition: "):
        run_batch(specs, ["seqpick", "roundrobin"], 2, workers=workers)


@pytest.mark.parametrize(
    "workers, instances, cpus, procs",
    [
        (1, 6, 8, 1),  # the default runs in this process
        (4, 1, 8, 1),  # one instance starts no process
        (4, 6, 1, 1),  # nor does one CPU
        (4, 6, None, 1),  # nor an unknown CPU count
        (4, 6, 2, 2),  # the CPUs bind
        (8, 3, 64, 3),  # the instances bind
        (10**6, 2, 64, 2),  # a huge count is cut to the instances
    ],
)
def test_run_batch_process_count(monkeypatch, workers, instances, cpus, procs):
    # a stand-in pool records the count it is asked for and maps in this
    # process, so no count here starts a process
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    specs = [GenSpec("uniform", n=2, m=5, seed=3)]
    serial = run_batch(specs, ["seqpick"], instances)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    rows, failures = run_batch(specs, ["seqpick"], instances, workers=workers)
    assert asked == ([] if procs == 1 else [procs])
    assert ([r[:6] for r in rows], failures) == ([r[:6] for r in serial[0]], serial[1])


def test_evaluate_with_precomputed_table_matches():
    inst = generate(GenSpec("correlated", n=3, m=9, seed=21))
    for alg in ("seqpick", "roundrobin", "dc3"):
        alloc = allocate(inst, alg)
        assert evaluate(alloc, inst, table=mms_table(inst)) == evaluate(alloc, inst)


def test_csv_shape_and_rounding():
    rows, _ = run_batch([GenSpec("uniform", n=3, m=7, seed=9)], ["seqpick"], 2)
    lines = rows_to_csv(rows).splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_batch_determinism_modulo_runtime():
    specs = [GenSpec("uniform", n=3, m=8, seed=77), GenSpec("correlated", n=4, m=9, seed=88)]
    algs = ["seqpick", "roundrobin", "randdecl"]
    rows1, _ = run_batch(specs, algs, seeds_per_spec=3, workers=1)
    rows2, _ = run_batch(specs, algs, seeds_per_spec=3, workers=4)
    assert strip_runtime(rows_to_csv(rows1)) == strip_runtime(rows_to_csv(rows2))


def test_strip_runtime_drops_last_column():
    text = "a,b,runtime_ms\n1,2,3.000\n"
    assert strip_runtime(text) == "a,b\n1,2\n"


def test_specs_from_config():
    doc = {
        "specs": [{"family": "uniform", "n": 2, "m": 5, "seed": 3}],
        "algorithms": ["seqpick"],
        "seeds_per_spec": 4,
    }
    specs, algs, k = specs_from_config(doc)
    assert specs == [GenSpec("uniform", n=2, m=5, seed=3)]
    assert algs == ["seqpick"] and k == 4


def test_specs_from_config_errors():
    with pytest.raises(ValueError, match='"specs"'):
        specs_from_config({"algorithms": []})
    with pytest.raises(ValueError, match="config must be a JSON object, not list"):
        specs_from_config([{"specs": [], "algorithms": []}])
    with pytest.raises(ValueError, match="each spec must be a JSON object, not list"):
        specs_from_config({"specs": [["uniform", 2, 5]], "algorithms": []})
    with pytest.raises(ValueError, match="unknown spec fields"):
        specs_from_config(
            {
                "specs": [{"family": "uniform", "n": 2, "m": 5, "seed": 3, "mean": 1}],
                "algorithms": [],
            }
        )
    good = {"family": "uniform", "n": 2, "m": 5, "seed": 3}
    for field, value, kind in [
        ("n", "3", "an integer"),
        ("m", True, "an integer"),
        ("seed", 1.5, "an integer"),
        ("index", None, "an integer"),
        ("lo", "0", "a number"),
        ("rho", False, "a number"),
        ("family", 3, "a string"),
        ("name", ["x"], "a string"),
    ]:
        with pytest.raises(ValueError, match=f'^spec field "{field}" must be {kind}, got '):
            specs_from_config({"specs": [{**good, field: value}], "algorithms": []})
    for seeds_per_spec in (-2, 0, "2", 1.0, True, None):
        with pytest.raises(ValueError, match='^"seeds_per_spec" must be an integer >= 1, got '):
            specs_from_config(
                {"specs": [good], "algorithms": [], "seeds_per_spec": seeds_per_spec}
            )
    # checked after the fields: an empty, repeated or unknown entry
    for raw_specs, algorithms, message in [
        ([], ["seqpick"], '^"specs" must not be empty$'),
        ([good], [], '^"algorithms" must not be empty$'),
        ([good], ["seqpick", "dc3", "seqpick"], "^algorithm 'seqpick' is listed twice$"),
        ([good], ["seqpick", "greedy"], "^unknown algorithm 'greedy'; choose from "),
        ([good], [3], "^unknown algorithm 3; choose from "),
        (
            [{**good, "rate": 5.0}],
            ["seqpick"],
            "^spec field \"rate\" does not apply to family 'uniform'$",
        ),
        (
            [{**good, "family": "identical_ranking", "lo": 2.0}],
            ["seqpick"],
            "^spec field \"lo\" does not apply to family 'identical_ranking'$",
        ),
    ]:
        with pytest.raises(ValueError, match=message):
            specs_from_config({"specs": raw_specs, "algorithms": algorithms})
    # ints are numbers, and numpy's count too
    specs, _, seeds_per_spec = specs_from_config(
        {
            "specs": [{**good, "lo": 0, "hi": np.float64(2.5)}],
            "algorithms": ["seqpick"],
            "seeds_per_spec": np.int64(2),
        }
    )
    assert (specs[0].lo, specs[0].hi, seeds_per_spec) == (0, 2.5, 2)
