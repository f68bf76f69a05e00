"""Outside-in tracing of choremms from the benchmark's own files.

A `Tracer` wraps each public function named in TARGETS at every place it is
bound: the module that defines it and every module that imported it by name
(for example `choremms.cli.load_instance`, `choremms.gen.evaluate`,
`choremms.verify.seqpick`). Each call through a wrapper records one span:
name, start, end, parent span and operation id. Spans stay in memory in
flat arrays and are written out once, at the end of the run.

Nothing inside the program changes. Counters that need the program's own
help (search nodes inside `mms_exact`) are out of reach from here.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "choremms"

# layer.function, where layer is the choremms module that defines it
TARGETS = (
    "cli.main",
    "model.load_instance",
    "model.validate",
    "model.surrogate_matrix",
    "gen.generate",
    "gen.run_batch",
    "algorithms.allocate",
    "algorithms.seqpick",
    "algorithms.randdecl",
    "algorithms.roundrobin",
    "algorithms.divide_choose_3",
    "algorithms.build_schedule",
    "algorithms.randdecl_expected_cost",
    "mms.mms_exact",
    "mms.evaluate",
    "verify.sp_check_ordinal",
    "verify.sp_check_randomized",
    "verify.mc_expected_cost",
    "verify.enum_expected_cost",
)

# calls whose arguments the traffic counters need
_KEEP_ARGS = (
    "mms.mms_exact",
    "gen.generate",
    "verify.sp_check_ordinal",
    "verify.sp_check_randomized",
)

# what the deviation checkers run once per misreport, as bound in verify
_RUNNERS = (
    "algorithms.seqpick",
    "algorithms.roundrobin",
    "algorithms.divide_choose_3",
    "algorithms.randdecl_expected_cost",
)


class TraceError(RuntimeError):
    """A wrapped function is missing from the program."""


class Tracer:
    """Spans and call counters for one traced run."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self.site_calls: Counter = Counter()  # (target, binding module) -> calls
        self.raised: Counter = Counter()  # (target, exception class) -> count
        self.args: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # --- installing the wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every target at every choremms module that binds it."""
        if self._patches:
            raise TraceError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for nid, target in enumerate(self.names):
            layer, func = target.split(".")
            home = modules.get(f"{PACKAGE}.{layer}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.uninstall()
                raise TraceError(f"{PACKAGE}.{target} not found; was it renamed?")
            for mod_name, mod in modules.items():
                site = mod_name.rsplit(".", 1)[-1]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, self._wrap(original, nid, target, site))
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, nid: int, target: str, site: str):
        keep = target in _KEEP_ARGS
        signature = inspect.signature(fn) if keep else None
        stack = self._stack
        site_key = (target, site)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.args[target].append(bound.arguments)
            self.site_calls[site_key] += 1
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(target, type(exc).__name__)] += 1
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()

        return wrapper

    # --- reading the spans ----------------------------------------------------

    def calls(self, target: str) -> int:
        return sum(c for (t, _), c in self.site_calls.items() if t == target)

    def write(self, path) -> None:
        """Write every span to an .npz file (names index the `names` array)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so no instant is subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_s = run_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            else:
                run_e = max(run_e, e)
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


def repeat_share(keys) -> float:
    """Share of calls whose key an earlier call already had."""
    seen = set()
    repeats = total = 0
    for key in keys:
        total += 1
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / total if total else 0.0


def _mms_key(arguments) -> tuple:
    row = arguments["row"]
    return tuple(sorted(c for c in row if c > 0)), arguments["n"]


def misreports(target: str, arguments, label_count) -> int:
    """Misreports a deviation check enumerates, from its arguments.

    sp_check_ordinal: m! rankings under the ordinal and cardinal models, plus
    |grid|^m magnitude-grid rows under the cardinal and public models when the
    grid is on. sp_check_randomized: every label set of the canonical size.
    """
    matrix = arguments["matrix"]
    m = matrix.m
    if target == "verify.sp_check_randomized":
        return math.comb(m, label_count(matrix.n, m))
    model = arguments["model"].value
    count = math.factorial(m) if model in ("ordinal", "cardinal") else 0
    if arguments["include_grid"] and model in ("cardinal", "public"):
        count += len(arguments["grid_factors"]) ** m
    return count


def layer_metrics(tracer: Tracer, rounds: int, label_count) -> dict[str, float]:
    """Per-layer numbers, with counts and seconds given per traced round."""
    nid = {t: i for i, t in enumerate(tracer.names)}
    incl = [0.0] * len(tracer.names)
    excl = [0.0] * len(tracer.names)
    mms_ms = []
    mms_id = nid["mms.mms_exact"]
    for i, own in enumerate(self_times(tracer.start, tracer.end, tracer.parent)):
        k = tracer.name[i]
        dur = tracer.end[i] - tracer.start[i]
        incl[k] += dur
        excl[k] += own
        if k == mms_id:
            mms_ms.append(dur * 1000.0)

    def per_round(x: float) -> float:
        return x / rounds

    out: dict[str, float] = {}

    def calls(target):
        out[f"{target}.calls"] = per_round(tracer.calls(target))

    def secs(target):
        out[f"{target}.s"] = per_round(incl[nid[target]])

    def self_s(target):
        out[f"{target}.self_s"] = per_round(excl[nid[target]])

    calls("cli.main")
    self_s("cli.main")
    secs("model.load_instance")
    for t in ("model.validate", "model.surrogate_matrix"):
        calls(t)
        secs(t)
    calls("gen.generate")
    secs("gen.generate")
    out["gen.generate.repeat_share"] = repeat_share(
        a["spec"] for a in tracer.args["gen.generate"]
    )
    self_s("gen.run_batch")
    for t in TARGETS:
        if t.startswith("algorithms."):
            calls(t)
            secs(t)
    calls("mms.mms_exact")
    secs("mms.mms_exact")
    out["mms.mms_exact.ms_p50"] = statistics.median(mms_ms) if mms_ms else 0.0
    out["mms.mms_exact.ms_max"] = max(mms_ms, default=0.0)
    out["mms.mms_exact.repeat_share"] = repeat_share(
        _mms_key(a) for a in tracer.args["mms.mms_exact"]
    )
    self_s("mms.evaluate")
    out["mms.cap_refusals"] = per_round(tracer.raised[("mms.mms_exact", "MmsCapError")])
    self_s("verify.sp_check_ordinal")
    self_s("verify.sp_check_randomized")
    secs("verify.mc_expected_cost")
    secs("verify.enum_expected_cost")
    enumerated = sum(
        misreports(t, a, label_count)
        for t in ("verify.sp_check_ordinal", "verify.sp_check_randomized")
        for a in tracer.args[t]
    )
    runner = sum(tracer.site_calls[(t, "verify")] for t in _RUNNERS)
    out["verify.misreports_enumerated"] = per_round(enumerated)
    out["verify.runner_calls"] = per_round(runner)
    out["verify.runner_call_share"] = runner / enumerated if enumerated else 0.0
    return out
