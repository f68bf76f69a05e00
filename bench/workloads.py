"""The benchmark's three workloads: inputs made from the seed, request mixes
and output checks.

Each workload is a mix of request classes with a fixed number of copies per
round. A run measures whole rounds, so every class keeps its exact share of
the requests. The copies are chosen so that the p50 and p90 latencies fall
well inside one class (or a band of overlapping classes), never on the gap
between two classes whose latencies differ by 2x or more: a quantile that
sat on such a gap would jump between them from run to run.

Request inputs depend only on (seed, round, slot); round 0 is the warm-up,
one request of each class.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

FAMILIES = ("uniform", "exponential", "identical_ranking", "correlated")


@dataclass
class Request:
    argv: list[str]
    units: int = 1  # work units for work_per_s: eval cells, else 1
    info: dict = field(default_factory=dict)  # what the output check needs
    files: dict = field(default_factory=dict)  # path -> text, written before the call


def interleave(mix):
    """Expand (class, copies) pairs into one round: the first copy of every
    class, then every second copy, and so on."""
    most = max(copies for _, copies in mix)
    return [cls for k in range(most) for cls, copies in mix if k < copies]


def _rng(seed: int, rnd: int, slot: int):
    return np.random.default_rng([seed, rnd, slot])


def _instance_text(rng, n: int, m: int) -> str:
    costs = rng.uniform(0.0, 1.0, size=(n, m)).tolist()
    return json.dumps({"n": n, "m": m, "costs": costs})


def _failed_exit(code, err: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    return None


class Workload:
    name = ""
    mix: list = []
    # traced spans that must record calls on this workload
    expect: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.order = interleave(self.mix)

    def prepare(self) -> None:
        """Write inputs shared by every round."""

    def warmup(self) -> list[Request]:
        return [self.request(cls, 0, k) for k, (cls, _) in enumerate(self.mix)]

    def round(self, rnd: int) -> list[Request]:
        return [self.request(cls, rnd, k) for k, cls in enumerate(self.order)]

    def request(self, cls, rnd: int, slot: int) -> Request:
        raise NotImplementedError

    def check(self, req: Request, code, out: str, err: str) -> Optional[str]:
        """None when the output is right, else the reason it is not."""
        raise NotImplementedError

    def canonical(self, req: Request, out: str) -> str:
        """The part of the output that must never change, for the digest."""
        return out


class EvalBatch(Workload):
    """`choremms eval` on one config per request: the four families at one
    (n, m), every algorithm that applies at n, one seed per family."""

    name = "eval-batch"
    # (n, m): median latency per call 58 / 81 / 84 / 210 ms at the
    # reference speed (run.py), each spread over 3x by instance difficulty.
    # Six calls per round: p50 falls inside the overlapping (4, 13) and
    # (2, 16) band, p90 at about the 70th percentile of the doubled (3, 14)
    # class.
    MIX = [((5, 12), 1), ((4, 13), 1), ((2, 16), 2), ((3, 14), 2)]
    TINY = [((2, 6), 1), ((3, 6), 1)]
    expect = (
        "cli.main",
        "gen.run_batch",
        "gen.generate",
        "algorithms.allocate",
        "algorithms.seqpick",
        "algorithms.randdecl",
        "algorithms.roundrobin",
        "algorithms.divide_choose_3",
        "algorithms.build_schedule",
        "mms.evaluate",
        "mms.mms_exact",
        "model.validate",
    )

    def __init__(self, seed, workdir, tiny=False):
        self.mix = self.TINY if tiny else self.MIX
        super().__init__(seed, workdir)

    def request(self, cls, rnd, slot):
        n, m = cls
        algs = ["seqpick", "randdecl", "roundrobin"] + (["dc3"] if n == 3 else [])
        seeds = _rng(self.seed, rnd, slot).integers(0, 2**31 - 1, size=len(FAMILIES))
        config = {
            "specs": [
                {"family": fam, "n": n, "m": m, "seed": int(s)}
                for fam, s in zip(FAMILIES, seeds)
            ],
            "algorithms": algs,
            "seeds_per_spec": 1,
        }
        cfg = self.workdir / "eval-config.json"
        out = self.workdir / "eval-table.csv"
        return Request(
            argv=["eval", "--config", str(cfg), "--out", str(out)],
            units=len(FAMILIES) * len(algs),
            info={"algs": algs, "out": out},
            files={cfg: json.dumps(config)},
        )

    def check(self, req, code, out, err):
        bad = _failed_exit(code, err)
        if bad:
            return bad
        if "skipped" in err:
            return "a cell was skipped: " + err.strip()[-300:]
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0][:6] != ["family", "n", "m", "algorithm", "seed", "max_ratio"]:
            return "eval CSV has no header"
        cells = rows[1:]
        if len(cells) != req.units:
            return f"{len(cells)} cells in the table, expected {req.units}"
        if {row[3] for row in cells} != set(req.info["algs"]):
            return "eval table lacks an algorithm"
        for row in cells:
            n, alg, ratio = int(row[1]), row[3], float(row[5])
            bound = {"roundrobin": 2.0 - 1.0 / n, "dc3": 1.5}.get(alg, math.inf)
            if not ratio <= bound + 1e-9:
                return f"{alg} max_ratio {ratio} exceeds its bound {bound:.6g}"
        if req.info["out"].read_text() != out:
            return "--out file differs from standard output"
        return None

    def canonical(self, req, out):
        # the runtime column is measured time, the rest must not change
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())


class AllocateLarge(Workload):
    """`choremms allocate` over pre-written instance files; the MMS report
    is refused at the cap, so no share is computed."""

    name = "allocate-large"
    SIZES = {"8x256": (8, 256), "16x512": (16, 512), "32x1024": (32, 1024), "64x4096": (64, 4096)}
    # Median latency per request, in ms at the reference speed (run.py):
    #   seqpick, randdecl 8x256                   5-7
    #   roundrobin 8x256, seqpick 16x512          13
    #   randdecl 16x512                           17
    #   roundrobin 16x512, seqpick/randdecl 32x1024  42-56
    #   roundrobin 32x1024                        160
    #   64x4096: seqpick 290, randdecl 440, roundrobin 2200
    # Sixty requests per round: p50 (the 30.5th) lands inside the 13 ms
    # band (24th-39th), p90 (the 54.9th) 25% into roundrobin 32x1024
    # (54th-57th), and both neighbours of each are 1.8x away or more. The
    # 64x4096 requests take ~60% of the time, so throughput follows them.
    MIX = [
        (("8x256", "seqpick"), 12),
        (("8x256", "randdecl"), 11),
        (("8x256", "roundrobin"), 8),
        (("16x512", "seqpick"), 8),
        (("16x512", "randdecl"), 8),
        (("16x512", "roundrobin"), 2),
        (("32x1024", "seqpick"), 2),
        (("32x1024", "randdecl"), 2),
        (("32x1024", "roundrobin"), 4),
        (("64x4096", "seqpick"), 1),
        (("64x4096", "randdecl"), 1),
        (("64x4096", "roundrobin"), 1),
    ]
    TINY_SIZES = {"4x32": (4, 32), "8x64": (8, 64)}
    TINY = [((size, alg), 1) for size in TINY_SIZES for alg in ("seqpick", "randdecl", "roundrobin")]
    expect = (
        "cli.main",
        "model.load_instance",
        "model.validate",
        "algorithms.allocate",
        "algorithms.seqpick",
        "algorithms.randdecl",
        "algorithms.roundrobin",
        "algorithms.build_schedule",
        "mms.evaluate",
        "mms.mms_exact",
    )

    def __init__(self, seed, workdir, tiny=False):
        self.mix = self.TINY if tiny else self.MIX
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        super().__init__(seed, workdir)

    def _path(self, size: str) -> Path:
        return self.workdir / f"instance-{size}.json"

    def prepare(self):
        for k, (size, (n, m)) in enumerate(self.sizes.items()):
            self._path(size).write_text(_instance_text(_rng(self.seed, 0, k), n, m))

    def request(self, cls, rnd, slot):
        size, alg = cls
        n, m = self.sizes[size]
        argv = ["allocate", "--instance", str(self._path(size)), "--alg", alg]
        if alg == "randdecl":
            argv += ["--seed", str(int(_rng(self.seed, rnd, slot).integers(0, 2**31 - 1)))]
        return Request(argv=argv, info={"n": n, "m": m, "alg": alg})

    def check(self, req, code, out, err):
        bad = _failed_exit(code, err)
        if bad:
            return bad
        doc = json.loads(out)
        bundles = doc["bundles"]
        if doc["algorithm"] != req.info["alg"]:
            return f"answered for {doc['algorithm']}, asked for {req.info['alg']}"
        if len(bundles) != req.info["n"]:
            return f"{len(bundles)} bundles for {req.info['n']} agents"
        items = sorted(j for bundle in bundles for j in bundle)
        if items != list(range(1, req.info["m"] + 1)):
            return "bundles are not a partition of 1..m"
        return None


class SpcheckSmall(Workload):
    """`choremms spcheck --agent k` on small instances, only for (algorithm,
    model) pairs the paper proves strategyproof."""

    name = "spcheck-small"
    KINDS = {
        "seqpick-ordinal": ["--alg", "seqpick", "--model", "ordinal"],
        "seqpick-cardinal": ["--alg", "seqpick", "--model", "cardinal"],
        "roundrobin-public-grid": ["--alg", "roundrobin", "--model", "public", "--grid"],
        "dc3-public-grid": ["--alg", "dc3", "--model", "public", "--grid"],
        "randdecl-exact": ["--alg", "randdecl", "--exact"],
        "randdecl-montecarlo": ["--alg", "randdecl"],
    }
    # Median latency per check, in ms at the reference speed (run.py):
    #   randdecl exact                         3-12
    #   m=6 seqpick and grid checks            25-37
    #   m=7 grid checks (roundrobin, dc3)      68-81
    #   m=7 seqpick                            184-264
    #   Monte-Carlo                            666-809
    # Thirty checks per round, the exact ones three times each: p50 (the
    # 15.5th) falls a third into the m=6 band (13th-19th), p90 (the 27.9th)
    # a quarter into the four Monte-Carlo checks (27th-30th).
    SIZES = [(2, 6), (2, 7), (3, 6), (3, 7)]
    TINY_SIZES = [(2, 4), (3, 4)]
    expect = (
        "cli.main",
        "model.load_instance",
        "model.validate",
        "model.surrogate_matrix",
        "verify.sp_check_ordinal",
        "verify.sp_check_randomized",
        "verify.mc_expected_cost",
        "verify.enum_expected_cost",
        "algorithms.seqpick",
        "algorithms.roundrobin",
        "algorithms.divide_choose_3",
        "algorithms.randdecl",
        "algorithms.randdecl_expected_cost",
        "algorithms.build_schedule",
    )

    def __init__(self, seed, workdir, tiny=False):
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.mix = [
            ((kind, n, m), 3 if kind == "randdecl-exact" else 1)
            for n, m in sizes
            for kind in self.KINDS
            if kind != "dc3-public-grid" or n == 3
        ]
        super().__init__(seed, workdir)

    def request(self, cls, rnd, slot):
        kind, n, m = cls
        path = self.workdir / "spcheck-instance.json"
        agent = 1 + (rnd + slot) % n
        return Request(
            argv=["spcheck", "--instance", str(path), *self.KINDS[kind], "--agent", str(agent)],
            info={"agent": agent},
            files={path: _instance_text(_rng(self.seed, rnd, slot), n, m)},
        )

    def check(self, req, code, out, err):
        bad = _failed_exit(code, err)
        if bad:
            return bad
        reports = json.loads(out)["reports"]
        if [r["agent"] for r in reports] != [req.info["agent"]]:
            return f"reports for agents {[r['agent'] for r in reports]}"
        if any(r["profitable"] for r in reports):
            return "profitable deviation reported for a strategyproof pair"
        return None


WORKLOADS = {w.name: w for w in (EvalBatch, AllocateLarge, SpcheckSmall)}
