"""Command-line entry point.

Subcommands: validate, mms, allocate, spcheck, witness, eval. All results
go to standard output as JSON (CSV for eval), diagnostics to standard
error. Exit codes: 0 success, 1 validation or flag errors, 2 property
failure (profitable deviation, witness mismatch, failed certification).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import algorithms, gen, mms, verify
from .model import CostMatrix, Model, header_problems, instance_costs, load_instance, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj):
    """Round floats to 12 significant digits; Fractions keep an exact form."""
    if isinstance(obj, Fraction):
        return {"value": _round12(float(obj)), "exact": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(doc) -> None:
    # serialised whole first: a non-finite float is an error, not half a
    # document of non-standard JSON
    sys.stdout.write(json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n")


def _bundles_1indexed(allocation) -> list[list[int]]:
    return [sorted(j + 1 for j in bundle) for bundle in allocation.bundles]


def _parse_order(text: str, n: int) -> list[int]:
    try:
        order = [int(tok) - 1 for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad --order {text!r}; expected e.g. 2,1,3")
    if sorted(order) != list(range(n)):
        raise ValueError(f"--order {text!r} is not a permutation of 1..{n}")
    return order


def _agents(agent, n: int) -> list[int]:
    """The 0-indexed agents a 1-indexed --agent names: all when absent."""
    if agent is None:
        return list(range(n))
    if not 1 <= agent <= n:
        raise ValueError(f"--agent {agent} out of range 1..{n}")
    return [agent - 1]


def _cmd_validate(args) -> int:
    with open(args.instance) as fh:
        doc = json.load(fh)
    costs = instance_costs(doc)
    problems = validate(costs) or header_problems(doc, costs)
    degenerate = []
    if not problems:
        matrix = CostMatrix.from_rows(costs, check=False)
        degenerate = [i + 1 for i in matrix.degenerate_agents()]
    _emit({"ok": not problems, "violations": problems, "degenerate_agents": degenerate})
    return EXIT_OK if not problems else EXIT_USAGE


def _cmd_mms(args) -> int:
    matrix = load_instance(args.instance)
    out = []
    for i in _agents(args.agent, matrix.n):
        result = mms.mms_exact(matrix.row(i), matrix.n, cap=args.cap)
        out.append(
            {
                "agent": i + 1,
                "mms": result.value,
                "method": result.method,
                "witness": _bundles_1indexed(result.witness),
            }
        )
    _emit({"n": matrix.n, "m": matrix.m, "results": out})
    return EXIT_OK


def _cmd_allocate(args) -> int:
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise ValueError(f"--alpha must be a finite number, got {args.alpha}")
    if args.order is not None and args.alg != "roundrobin":
        raise ValueError("--order applies only to --alg roundrobin")
    if args.seed is not None and args.alg != "randdecl":
        raise ValueError("--seed applies only to --alg randdecl")
    matrix = load_instance(args.instance)
    order = None if args.order is None else _parse_order(args.order, matrix.n)
    alloc = algorithms.allocate(
        matrix,
        args.alg,
        model=Model(args.model),
        seed=args.seed,
        agent_order=order,
    )
    doc = {
        "algorithm": args.alg,
        "model": args.model,
        "bundles": _bundles_1indexed(alloc),
    }
    exit_code = EXIT_OK
    try:
        report = mms.evaluate(alloc, matrix, cap=args.cap)
        doc["report"] = report.to_jsonable()
        if args.alpha is not None:
            passes = [r.ratio <= args.alpha + 1e-9 for r in report.per_agent]
            doc["alpha"] = args.alpha
            doc["certified"] = all(passes)
            doc["per_agent_pass"] = passes
            if not all(passes):
                exit_code = EXIT_PROPERTY
    except mms.MmsCapError as exc:
        doc["report"] = None
        print(f"report skipped: {exc}", file=sys.stderr)
    _emit(doc)
    return exit_code


def _cmd_spcheck(args) -> int:
    randomized = args.alg == "randdecl"
    if args.exact and not randomized:
        raise ValueError("--exact applies only to --alg randdecl")
    if args.trials is not None and not randomized:
        raise ValueError("--trials applies only to --alg randdecl")
    if args.trials is not None and args.exact:
        raise ValueError("--trials applies only without --exact")
    if args.grid and (randomized or args.model in (None, "ordinal")):
        raise ValueError("--grid applies only to --model cardinal or public, not to randdecl")
    if args.model is not None and randomized:
        raise ValueError("--model applies only without --alg randdecl")
    model_name = "ordinal" if args.model is None else args.model
    model = Model(model_name)
    algorithms.check_algorithm(args.alg, model)
    trials = verify.MC_TRIALS if args.trials is None else args.trials
    matrix = load_instance(args.instance)
    reports = []
    for i in _agents(args.agent, matrix.n):
        if randomized:
            mode = "exact" if args.exact else "montecarlo"
            rep = verify.sp_check_randomized(matrix, i, mode=mode, trials=trials)
        else:
            runner = verify.algorithm_runner(args.alg)
            rep = verify.sp_check_ordinal(
                runner, matrix, i, model=model, include_grid=args.grid
            )
        reports.append(rep.to_jsonable())
    any_profitable = any(r["profitable"] for r in reports)
    _emit({"algorithm": args.alg, "model": model_name, "reports": reports})
    return EXIT_PROPERTY if any_profitable else EXIT_OK


def _cmd_witness(args) -> int:
    if args.which == "ordinal-det":
        value, alloc = verify.witness_ordinal_det()
        doc = {"witness": "ordinal-det", "value": value, "allocation": _bundles_1indexed(alloc)}
        ok = value == Fraction(4, 3)
    else:
        value, p_star = verify.witness_ordinal_rand()
        doc = {"witness": "ordinal-rand", "value": value, "p_star": p_star}
        ok = value == Fraction(6, 5) and p_star == Fraction(3, 5)
    doc["matches_expected"] = ok
    _emit(doc)
    return EXIT_OK if ok else EXIT_PROPERTY


def _cmd_eval(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    with open(args.config) as fh:
        doc = json.load(fh)
    specs, algs, seeds_per_spec = gen.specs_from_config(doc)
    rows, failures = gen.run_batch(
        specs, algs, seeds_per_spec, cap=args.cap, workers=args.workers
    )
    text = gen.rows_to_csv(rows)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    sys.stdout.write(text)
    for failure in failures:
        print(
            f"skipped ({failure.spec.label()}, {failure.algorithm}, "
            f"seed={failure.seed}): {failure.reason}",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choremms",
        description="Strategyproof maxmin-share chore allocation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    models = sorted(model.value for model in Model)

    p = sub.add_parser("validate", help="check an instance file against the model invariants")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mms", help="exact per-agent maxmin shares with witnesses")
    p.add_argument("--instance", required=True)
    p.add_argument("--agent", type=int, default=None, help="1-indexed agent")
    p.add_argument("--cap", type=int, default=mms.DEFAULT_CAP)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("allocate", help="run one allocation algorithm")
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", required=True, choices=algorithms.ALGORITHMS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--order", default=None, help="roundrobin: 1-indexed agent order, e.g. 2,1,3"
    )
    p.add_argument("--model", default="cardinal", choices=models)
    p.add_argument("--alpha", type=float, default=None, help="certify at this ratio")
    p.add_argument("--cap", type=int, default=mms.DEFAULT_CAP)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("spcheck", help="exhaustive unilateral-deviation search")
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", required=True, choices=algorithms.ALGORITHMS)
    p.add_argument(
        "--model", default=None, choices=models, help="default ordinal; not randdecl"
    )
    p.add_argument("--agent", type=int, default=None, help="1-indexed agent")
    p.add_argument("--exact", action="store_true", help="randdecl: enumerate all landings")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--grid", action="store_true", help="add cardinal magnitude-grid misreports")
    p.set_defaults(func=_cmd_spcheck)

    p = sub.add_parser("witness", help="brute-force lower-bound witness values")
    p.add_argument("which", choices=("ordinal-det", "ordinal-rand"))
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("eval", help="batch experiment harness writing a CSV table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cap", type=int, default=mms.DEFAULT_CAP)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors; remap to the usage code
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
