"""Seeded benchmark of the choremms CLI, driven in-process.

    python3 bench/run.py --workload eval-batch --seed 1 --seconds 25 --trace 0

Run it from the repository root. It imports `choremms` from `src/` and calls
`choremms.cli.main(argv)` in one process and one thread, as a closed loop
with one client: the next request goes out when the previous one returns.
The program sees only instance files and configs made from `--seed`.

With `--trace 0` the run measures whole rounds of the workload's request mix
for `--seconds` and reports the end-to-end metrics. Set-up (imports, input
generation, one warm-up request per class) is timed in this process and in
SETUP_PROBES fresh processes, and the median is reported. With `--trace 1`,
rounds alternate between untraced and traced; the traced ones give the
per-layer metrics (see tracing.py) and the ratio of the two gives the
tracing overhead.

Every time reported is scaled to a reference host speed; see calibrate().
Every output is checked (see workloads.py). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it name each metric with its unit, under the workload's own names.
Exit code 0 on a completed run, 2 when the program or a wrapper is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# metric names, units and run length: the benchmark contract
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 1
SETUP_PROBES = 2
# Time of one calibration loop on an idle host (one core of an Intel Xeon
# VM). Every timing is scaled to this speed; see calibrate().
CAL_REF_S = 0.003
_CAL_XS = [((i * 7919) % 1009) / 1009.0 for i in range(300)]
# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100

# the workload's own names for the generic end-to-end metrics
ALIASES = {
    "eval-batch": {"work_per_s": "cells_per_s"},
    "allocate-large": {"work_per_s": "req_per_s", "call_ms_p50": "req_ms_p50", "call_ms_p90": "req_ms_p90"},
    "spcheck-small": {"work_per_s": "checks_per_s", "call_ms_p50": "check_ms_p50", "call_ms_p90": "check_ms_p90"},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program, or a wrapper found nothing."""


@dataclass
class Outcome:
    seconds: float  # wall time
    units: int
    failure: str | None
    canonical: str
    scaled: float = 0.0  # wall time at the reference speed


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop shaped like the program's hot
    loops: a min over a set with a key, a keyed sort, dict updates and a
    small branch-and-bound partition search.

    The host's speed changes by up to 1.7x for tens of seconds at a time,
    because of other tenants. A timing t measured next to a loop that took
    c seconds is reported as t * CAL_REF_S / c: the time it would have
    taken at the reference speed. The loop runs outside the timed region
    and shares no code with the program, so a change to the program cannot
    move it.
    """
    xs = _CAL_XS
    t0 = time.perf_counter()
    remaining = set(range(120))
    while remaining:
        remaining.discard(min(remaining, key=lambda t: (xs[t], t)))
    order = sorted(range(len(xs)), key=lambda j: (-xs[j], j))
    acc: dict[int, float] = {}
    for k in order:
        acc[k % 31] = acc.get(k % 31, 0.0) + xs[k]
    items = xs[:11]
    loads = [0.0, 0.0, 0.0]
    best = [sum(items)]

    def search(idx: int, worst: float) -> None:
        if idx == len(items):
            best[0] = min(best[0], worst)
            return
        seen = set()
        for b, load in enumerate(loads):
            if load in seen or load + items[idx] >= best[0]:
                continue
            seen.add(load)
            loads[b] = load + items[idx]
            search(idx + 1, max(worst, loads[b]))
            loads[b] = load

    search(0, 0.0)
    return time.perf_counter() - t0


def speed() -> float:
    return statistics.median(calibrate() for _ in range(3))


def load_program():
    """Import choremms from this checkout's src/, never from elsewhere."""
    init = SRC / "choremms" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program at {init.relative_to(ROOT)}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import choremms.cli

    if Path(choremms.__file__).resolve() != init.resolve():
        raise BenchError(f"choremms imported from {choremms.__file__}, not from {SRC}")
    return choremms.cli


def send(cli, workload, req) -> Outcome:
    """One request through cli.main, timed and checked."""
    for path, text in req.files.items():
        Path(path).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req.argv))
        except Exception as exc:  # a traceback is a failed request, not a crashed run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    if isinstance(code, str):
        failure = code
    else:
        try:
            failure = workload.check(req, code, text, err.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(seconds, req.units, failure, workload.canonical(req, text))


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Imports, inputs and one warm-up request per class, timed together.

    Returns the set-up time scaled to the reference speed."""
    before = speed()
    t0 = time.perf_counter()
    cli = load_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir, tiny)
    workload.prepare()
    warm = [send(cli, workload, req) for req in workload.warmup()]
    seconds = time.perf_counter() - t0
    return cli, workload, seconds * CAL_REF_S * 2 / (before + speed()), warm


def probe_setup(name: str, seed: int) -> float:
    """Set-up time in a fresh process, so that imports count."""
    argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(cli, workload, seconds: float, min_requests: int, tracer=None):
    """Whole rounds until `seconds` have passed and `min_requests` were sent.

    With a tracer, odd rounds run untraced and even rounds traced, and the
    run stops after a traced round.
    """
    rounds = []  # (traced, outcomes)
    sent = 0
    t_start = time.perf_counter()
    rnd = 0
    while True:
        rnd += 1
        traced = tracer is not None and rnd % 2 == 0
        requests = workload.round(rnd)
        if traced:
            tracer.install()
        outcomes, cal = [], []
        try:
            for k, req in enumerate(requests):
                if traced:
                    tracer.current_op = len(rounds) * len(requests) + k
                cal.append(calibrate())
                outcomes.append(send(cli, workload, req))
        finally:
            if traced:
                tracer.uninstall()
        cal.append(calibrate())
        for k, o in enumerate(outcomes):
            # the loops just before and after the request, and one more each side
            o.scaled = o.seconds * CAL_REF_S / statistics.median(cal[max(0, k - 1) : k + 3])
        rounds.append((traced, outcomes))
        sent += len(outcomes)
        if time.perf_counter() - t_start >= seconds and sent >= min_requests:
            if tracer is None or traced:
                return rounds


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.canonical.encode())
        h.update(b"\0")
    return h.hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def end_to_end(outcomes, setup_samples) -> dict[str, float]:
    ms = [o.scaled * 1000.0 for o in outcomes]
    cuts = statistics.quantiles(ms, n=10)
    return {
        "work_per_s": sum(o.units for o in outcomes) / sum(o.scaled for o in outcomes),
        "call_ms_p50": statistics.median(ms),
        "call_ms_p90": cuts[8],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: int = SETUP_PROBES):
    """One benchmark run; returns (result object, summary lines)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cli, workload, setup_s, warm = setup(name, seed, workdir, tiny)
        setup_samples = [setup_s] + [probe_setup(name, seed) for _ in range(0 if trace else probes)]
        tracer = tracing.Tracer() if trace else None
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        rounds = run_rounds(cli, workload, seconds, 1 if tiny else MIN_REQUESTS, tracer)
        cpu_per_wall = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [o for _, outcomes in rounds for o in outcomes]
    everything = warm + measured
    failures = [o.failure for o in everything if o.failure]
    lines = [
        f"{name} seed={seed}: {len(rounds)} rounds of {len(rounds[0][1])} requests, "
        f"{len(everything)} checked (warm-up included), {len(failures)} failed"
    ]
    lines += [f"  failed: {f}" for f in failures[:5]]
    correct = not failures
    digests = json.loads((BENCH / "digests.json").read_text())
    if seed == digests["seed"] and not tiny:
        want = digests.get(name)
        got = digest(rounds[0][1])
        if got != want:
            correct = False
            lines.append(f"  output digest {got} differs from the committed {want}")
        else:
            lines.append("  output digest matches the committed one")

    if trace:
        missing = [t for t in workload.expect if tracer.calls(t) == 0]
        if missing:
            raise BenchError(f"{name}: traced wrappers recorded no calls: {', '.join(missing)}")
        traced = [sum(o.scaled for o in outs) for on, outs in rounds if on]
        untraced = [sum(o.scaled for o in outs) for on, outs in rounds if not on]
        metrics = tracing.layer_metrics(tracer, len(traced), cli.algorithms.label_count)
        metrics["process.cpu_per_wall"] = cpu_per_wall
        metrics["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(untraced) - 1.0
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        listed = SPEC["per_layer"]
    else:
        metrics = end_to_end(measured, setup_samples)
        listed = SPEC["end_to_end"]
        lines.append(f"  fail_frac = {len(failures) / len(everything):.6g} fraction")
        wall = [o.seconds * 1000.0 for o in measured]
        lines.append(
            f"  unscaled wall clock: {sum(o.units for o in measured) / sum(wall) * 1000.0:.6g} 1/s, "
            f"p50 {statistics.median(wall):.6g} ms, p90 {statistics.quantiles(wall, n=10)[8]:.6g} ms"
        )

    if set(metrics) != {m["name"] for m in listed}:
        raise BenchError(f"measured metrics differ from those BENCHMARK.json lists: {sorted(metrics)}")
    alias = ALIASES[name]
    lines += [
        f"  {alias.get(m['name'], m['name'])} = {metrics[m['name']]:.6g} {m['unit']}"
        + (f"  ({m['name']})" if m["name"] in alias else "")
        for m in listed
    ]
    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            OUT.mkdir(exist_ok=True)
            workdir = OUT / f"probe-{os.getpid()}"
            workdir.mkdir()
            try:
                _, _, setup_s, _ = setup(args.workload, args.seed, workdir, False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, tracing.TraceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
