"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failures(name):
    result, _ = run.run(name, seed=3, seconds=0.0, trace=False, tiny=True, probes=0)
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    result, _ = run.run(name, seed=3, seconds=0.0, trace=True, tiny=True)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_eval_repeat_share_is_what_the_configs_imply():
    result, _ = run.run("eval-batch", seed=5, seconds=0.0, trace=True, tiny=True)
    # tiny mix: four families at n=2 (three algorithms) and at n=3 (four);
    # every evaluation calls mms_exact once per agent, and rows never collide
    calls = {2: 4 * 3 * 2, 3: 4 * 4 * 3}
    repeats = calls[2] * (1 - 1 / 3) + calls[3] * (1 - 1 / 4)
    share = result["metrics"]["mms.mms_exact.repeat_share"]["value"]
    assert share == pytest.approx(repeats / (calls[2] + calls[3]))


def _stdout(req) -> str:
    """Standard output of a request that must succeed."""
    for path, text in req.files.items():
        Path(path).write_text(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert run.load_program().main(list(req.argv)) == 0
    return buf.getvalue()


def test_corrupted_allocate_output_is_a_failure(tmp_path):
    wl = workloads.AllocateLarge(1, tmp_path, tiny=True)
    wl.prepare()
    req = wl.request(("4x32", "roundrobin"), 1, 0)
    doc = json.loads(_stdout(req))
    assert wl.check(req, 0, json.dumps(doc), "") is None

    dup = json.loads(json.dumps(doc))
    dup["bundles"][0].append(dup["bundles"][1][0])
    lost = json.loads(json.dumps(doc))
    lost["bundles"][0].pop()
    for bad in (dup, lost):
        assert "partition" in wl.check(req, 0, json.dumps(bad), "")
    assert wl.check(req, 1, json.dumps(doc), "error: boom").startswith("exit 1")


def test_corrupted_eval_output_is_a_failure(tmp_path):
    wl = workloads.EvalBatch(1, tmp_path, tiny=True)
    req = wl.request((3, 6), 1, 0)
    text = _stdout(req)
    assert wl.check(req, 0, text, "") is None
    assert "skipped" in wl.check(req, 0, text, "skipped (uniform, dc3, seed=1): x")

    lines = text.splitlines()
    assert "cells" in wl.check(req, 0, "\n".join(lines[:-1]) + "\n", "")
    rr = next(i for i, line in enumerate(lines) if ",roundrobin," in line)
    fields = lines[rr].split(",")
    fields[5] = "1.7"  # above 2 - 1/3
    lines[rr] = ",".join(fields)
    assert "exceeds" in wl.check(req, 0, "\n".join(lines) + "\n", "")


def test_corrupted_spcheck_output_is_a_failure(tmp_path):
    wl = workloads.SpcheckSmall(1, tmp_path, tiny=True)
    req = wl.request(("seqpick-ordinal", 3, 4), 1, 0)
    doc = json.loads(_stdout(req))
    assert wl.check(req, 0, json.dumps(doc), "") is None
    doc["reports"][0]["profitable"] = True
    assert "profitable" in wl.check(req, 0, json.dumps(doc), "")


def test_a_failing_request_is_counted(tmp_path):
    wl = workloads.SpcheckSmall(1, tmp_path, tiny=True)
    req = wl.request(("seqpick-ordinal", 3, 4), 1, 0)
    req.files = {}  # the instance file is never written
    outcome = run.send(run.load_program(), wl, req)
    assert outcome.failure and outcome.failure.startswith("exit 1")


def test_self_times_on_hand_built_spans():
    # 0: root [0, 10]
    # 1: child [1, 4], holding 3: grandchild [2, 3]
    # 2: child [3, 6], overlapping 1
    # 4: child [9, 12], running past the end of its parent
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    # root: children cover [1, 6] and [9, 10], 6 of its 10
    assert tracing.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_renamed_function_fails_loudly(monkeypatch):
    run.load_program()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + ("algorithms.no_such_rule",))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="no_such_rule"):
        tracer.install()
    import choremms.algorithms

    assert not hasattr(choremms.algorithms.seqpick, "__wrapped__")


def test_wrapper_with_no_calls_fails_the_traced_run(monkeypatch):
    expect = workloads.EvalBatch.expect + ("verify.sp_check_ordinal",)
    monkeypatch.setattr(workloads.EvalBatch, "expect", expect)
    with pytest.raises(run.BenchError, match="sp_check_ordinal"):
        run.run("eval-batch", seed=3, seconds=0.0, trace=True, tiny=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "eval-batch", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
