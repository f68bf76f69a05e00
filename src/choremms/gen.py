"""Seeded instance generators and the batch experiment harness.

Instances come from a PCG64 generator keyed by the spec's seed, so every
table is reproducible cell by cell; batch output rows are sorted before
writing so parallel execution never changes the file. The runtime column is
measured wall time and is excluded from any determinism comparison.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .algorithms import allocate, check_algorithm
from .mms import DEFAULT_CAP, MmsCapError, evaluate, mms_table
from .model import CostMatrix
from .verify import fixture_instances

FAMILIES = ("uniform", "exponential", "identical_ranking", "correlated", "fixture")

CSV_COLUMNS = ("family", "n", "m", "algorithm", "seed", "max_ratio", "runtime_ms")


@dataclass(frozen=True)
class GenSpec:
    """One cell of the experiment grid: a family, sizes, and a seed."""

    family: str
    n: int
    m: int
    seed: int
    lo: float = 0.0
    hi: float = 1.0
    rate: float = 1.0
    rho: float = 0.5
    name: str = ""
    index: int = 0

    def label(self) -> str:
        if self.family == "uniform":
            return f"uniform({self.lo:g},{self.hi:g})"
        if self.family == "exponential":
            return f"exponential({self.rate:g})"
        if self.family == "correlated":
            return f"correlated({self.rho:g})"
        if self.family == "fixture":
            return f"fixture({self.name}:{self.index})"
        return self.family


def generate(spec: GenSpec) -> CostMatrix:
    """Build one instance; identical specs always yield identical matrices."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    if spec.family == "fixture":
        instances = fixture_instances(spec.name)
        if not 0 <= spec.index < len(instances):
            raise ValueError(
                f"fixture {spec.name!r} has instances 0..{len(instances) - 1}, "
                f"not {spec.index}"
            )
        inst = instances[spec.index]
        if (spec.n, spec.m) != (inst.n, inst.m):
            shape = f"{inst.n}x{inst.m}, not {spec.n}x{spec.m}"
            raise ValueError(f"fixture {spec.name!r} instances are {shape}")
        return inst
    if spec.n < 1 or spec.m < 1:
        raise ValueError("n and m must be >= 1")
    rng = np.random.default_rng(spec.seed)
    if spec.family == "uniform":
        if spec.lo < 0 or spec.hi < spec.lo:
            raise ValueError("uniform family needs 0 <= lo <= hi")
        grid = rng.uniform(spec.lo, spec.hi, size=(spec.n, spec.m))
    elif spec.family == "exponential":
        if spec.rate <= 0:
            raise ValueError("exponential family needs rate > 0")
        grid = rng.exponential(1.0 / spec.rate, size=(spec.n, spec.m))
    elif spec.family == "identical_ranking":
        # every row sorted descending along one shared permutation
        order = rng.permutation(spec.m)
        grid = np.empty((spec.n, spec.m))
        for i in range(spec.n):
            vals = np.sort(rng.uniform(0.0, 1.0, size=spec.m))[::-1]
            grid[i, order] = vals
    else:  # correlated
        if not 0.0 <= spec.rho <= 1.0:
            raise ValueError("correlated family needs rho in [0, 1]")
        common = rng.uniform(0.0, 1.0, size=spec.m)
        private = rng.uniform(0.0, 1.0, size=(spec.n, spec.m))
        grid = spec.rho * common[None, :] + (1.0 - spec.rho) * private
    return CostMatrix.from_rows(grid.tolist())


@dataclass(frozen=True)
class BatchFailure:
    spec: GenSpec
    algorithm: str
    seed: int
    reason: str


def _run_instance(spec: GenSpec, seed: int, algorithms: Sequence[str], cap: int):
    """Every algorithm on one generated instance, as one (row, failure) pair
    per algorithm in the given order.

    Each skip cause is caught where it arises: generate, the algorithm's
    precondition, the cap on the share solve. Any other error, such as an
    allocation that is not a partition, is a bug and propagates.

    The agents' shares are solved once, after the first allocation on the
    instance succeeds, so an algorithm's own precondition error is still
    reported ahead of a cap refusal. A refused solve is retried by each
    later cell and fails the same way at once: the cap check precedes any
    search. Each cell's runtime covers its own allocate and evaluate, plus
    the solve it set off.
    """
    try:
        inst = generate(replace(spec, seed=seed))
    except ValueError as exc:
        return [(None, BatchFailure(spec, alg, seed, str(exc))) for alg in algorithms]
    table = None
    out = []
    for alg in algorithms:
        t0 = time.perf_counter()
        try:
            alloc = allocate(inst, alg, seed=seed)
        except ValueError as exc:
            out.append((None, BatchFailure(spec, alg, seed, str(exc))))
            continue
        if table is None:
            try:
                table = mms_table(inst, cap=cap)
            except MmsCapError as exc:
                out.append((None, BatchFailure(spec, alg, seed, str(exc))))
                continue
        report = evaluate(alloc, inst, table=table)
        runtime_ms = (time.perf_counter() - t0) * 1000.0
        row = (spec.label(), spec.n, spec.m, alg, seed, report.max_ratio, runtime_ms)
        out.append((row, None))
    return out


def run_batch(
    specs: Sequence[GenSpec],
    algorithms: Sequence[str],
    seeds_per_spec: int,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> tuple[list[tuple], list[BatchFailure]]:
    """Allocate + certify every (spec, algorithm, seed) cell.

    The unit of work is one generated instance, a (spec, seed) pair, on
    which every algorithm runs against one table of shares. Returns sorted
    result rows and the skipped cells (generator errors, algorithm
    preconditions, cap violations) in (spec, algorithm, seed) order, for
    the caller to report; the batch never aborts on a skipped cell.
    """
    instances = [(spec, spec.seed + k) for spec in specs for k in range(seeds_per_spec)]

    def work(instance):
        spec, seed = instance
        return _run_instance(spec, seed, algorithms, cap)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(work, instances))
    else:
        per_instance = [work(i) for i in instances]
    rows: list[tuple] = []
    failures: list[BatchFailure] = []
    # report in (spec, algorithm, seed) order, as one cell at a time would
    for s in range(len(specs)):
        of_spec = per_instance[s * seeds_per_spec : (s + 1) * seeds_per_spec]
        for a in range(len(algorithms)):
            for cells in of_spec:
                row, failure = cells[a]
                if failure is None:
                    rows.append(row)
                else:
                    failures.append(failure)
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    return rows, failures


def rows_to_csv(rows: Sequence[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for family, n, m, alg, seed, max_ratio, runtime_ms in rows:
        writer.writerow(
            [family, n, m, alg, seed, f"{max_ratio:.12g}", f"{runtime_ms:.3f}"]
        )
    return buf.getvalue()


def strip_runtime(csv_text: str) -> str:
    """Drop the runtime column; what is left must be byte-stable across runs."""
    out_lines = []
    for line in csv_text.splitlines():
        out_lines.append(line.rsplit(",", 1)[0])
    return "\n".join(out_lines) + "\n"


def specs_from_config(doc: dict) -> tuple[list[GenSpec], list[str], int]:
    """Parse the eval config: {"specs": [...], "algorithms": [...],
    "seeds_per_spec": int}."""
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, not {type(doc).__name__}")
    raw_specs = doc.get("specs")
    algorithms = doc.get("algorithms")
    seeds_per_spec = doc.get("seeds_per_spec", 1)
    if not isinstance(raw_specs, list) or not isinstance(algorithms, list):
        raise ValueError('config needs "specs" and "algorithms" lists')
    if not _is_int(seeds_per_spec) or seeds_per_spec < 1:
        raise ValueError(f'"seeds_per_spec" must be an integer >= 1, got {seeds_per_spec!r}')
    field_types = {f.name: f.type for f in fields(GenSpec)}
    required = [f.name for f in fields(GenSpec) if f.default is MISSING]
    specs = []
    for entry in raw_specs:
        if not isinstance(entry, dict):
            raise ValueError(f"each spec must be a JSON object, not {type(entry).__name__}")
        unknown = set(entry) - set(field_types)
        if unknown:
            raise ValueError(f"unknown spec fields {sorted(unknown)}")
        missing = [name for name in required if name not in entry]
        if missing:
            raise ValueError(f"missing spec fields {missing}")
        for name, value in entry.items():
            kind, ok = _FIELD_CHECKS[field_types[name]]
            if not ok(value):
                raise ValueError(f'spec field "{name}" must be {kind}, got {value!r}')
        specs.append(GenSpec(**entry))
    if not specs:
        raise ValueError('"specs" must not be empty')
    if not algorithms:
        raise ValueError('"algorithms" must not be empty')
    for k, name in enumerate(algorithms):
        check_algorithm(name)
        if name in algorithms[:k]:
            raise ValueError(f"algorithm {name!r} is listed twice")
    return specs, list(algorithms), seeds_per_spec


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# what a config may give each GenSpec field, by its annotation; a bool is
# no number here
_FIELD_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_real),
    "str": ("a string", lambda v: isinstance(v, str)),
}
