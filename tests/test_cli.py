import json
import os
import subprocess
import sys
from dataclasses import MISSING
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import choremms
from choremms import cli
from choremms.cli import main
from choremms.model import validate
from oracles import strip_runtime


@pytest.fixture
def instance(tmp_path):
    def write(costs, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"costs": costs}))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_validate_ok(capsys, instance):
    path = instance([[3, 1, 1, 1], [3, 1, 1, 1]])
    code, doc, _ = run_json(capsys, ["validate", "--instance", path])
    assert code == 0
    assert doc == {"ok": True, "violations": [], "degenerate_agents": []}


def test_validate_bad_instance(capsys, instance):
    path = instance([[3, -1], [1, 1]])
    code, doc, _ = run_json(capsys, ["validate", "--instance", path])
    assert code == 1
    assert not doc["ok"]
    assert any("(1,2)" in v for v in doc["violations"])


def test_validate_flags_degenerate_agent(capsys, instance):
    path = instance([[0, 0], [1, 1]])
    code, doc, _ = run_json(capsys, ["validate", "--instance", path])
    assert code == 0
    assert doc["degenerate_agents"] == [1]


def test_validate_lists_a_header_mismatch(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 3, "m": 3, "costs": [[1, 2], [3, 4]]}))
    code, doc, _ = run_json(capsys, ["validate", "--instance", str(path)])
    assert code == 1
    assert doc == {
        "ok": False,
        "violations": [
            'instance "n"=3 but costs has 2 rows',
            'instance "m"=3 but rows have 2 entries',
        ],
        "degenerate_agents": [],
    }
    # every other command refuses the instance on its first mismatch
    code, out, err = run(capsys, ["mms", "--instance", str(path)])
    assert (code, out) == (1, "")
    assert err == 'error: instance "n"=3 but costs has 2 rows\n'


# a header field that is given must be an integer (no bool, no float), and
# only an integer one is compared with the grid
HEADER_NOT_AN_INTEGER = [
    ({"n": True, "costs": [[1, 2]]}, ['instance "n" must be an integer, got true']),
    ({"n": 2.0, "costs": [[1, 2], [3, 4]]}, ['instance "n" must be an integer, got 2.0']),
    ({"m": "2", "costs": [[1, 2]]}, ['instance "m" must be an integer, got "2"']),
    ({"n": None, "m": 2, "costs": [[1, 2]]}, ['instance "n" must be an integer, got null']),
    (
        {"n": 3, "m": [2], "costs": [[1, 2], [3, 4]]},
        ['instance "n"=3 but costs has 2 rows', 'instance "m" must be an integer, got [2]'],
    ),
]


@pytest.mark.parametrize("doc, violations", HEADER_NOT_AN_INTEGER)
def test_validate_lists_a_header_that_is_not_an_integer(capsys, tmp_path, doc, violations):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, ["validate", "--instance", str(path)])
    assert code == 1
    assert out == {"ok": False, "violations": violations, "degenerate_agents": []}


@pytest.mark.parametrize("doc, violations", HEADER_NOT_AN_INTEGER)
def test_mms_refuses_a_header_that_is_not_an_integer(capsys, tmp_path, doc, violations):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["mms", "--instance", str(path)])
    assert code == 1 and out == ""
    assert err == f"error: {violations[0]}\n"


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["validate", "--instance", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in err


def test_non_finite_cost_is_rejected(capsys, tmp_path):
    # 1e999 parses to infinity; the CLI must refuse it rather than print Infinity
    path = tmp_path / "inf.json"
    path.write_text('{"costs": [[1, 1e999], [1, 1]]}')
    code, out, err = run(capsys, ["mms", "--instance", str(path)])
    assert code == 1
    assert out == ""
    assert "non-finite cost at (1,2)" in err


@pytest.mark.parametrize(
    "text, command",
    [
        ("[[1, 2], [2, 1]]", ["validate"]),  # top level is a list
        ("[[1, 2], [2, 1]]", ["mms"]),
        ('{"costs": 5}', ["validate"]),  # costs is not a list of lists
        ('{"costs": 5}', ["allocate", "--alg", "seqpick"]),
        ('{"n": 2}', ["validate"]),  # no costs at all
        ('{"n": 2}', ["allocate", "--alg", "seqpick"]),
    ],
)
def test_malformed_instance_is_a_clean_error(capsys, tmp_path, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command + ["--instance", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "--instance"],
        ["mms", "--instance"],
        ["eval", "--out", "table.csv", "--config"],
    ],
)
def test_deeply_nested_json_is_a_clean_error(capsys, tmp_path, command):
    # deeper than the JSON parser's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [str(tmp_path / arg) if arg == "table.csv" else arg for arg in command]
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: JSON in {path} is nested too deeply to read\n"
    assert not (tmp_path / "table.csv").exists()


def test_mms_all_agents(capsys, instance):
    path = instance([[3, 1, 1, 1], [1, 1, 1, 1]])
    code, doc, _ = run_json(capsys, ["mms", "--instance", path])
    assert code == 0
    assert [r["mms"] for r in doc["results"]] == [3, 2]
    witness = doc["results"][0]["witness"]
    assert sorted(sorted(b) for b in witness) == [[1], [2, 3, 4]]


def test_mms_single_agent_and_range_check(capsys, instance):
    path = instance([[3, 1, 1, 1], [1, 1, 1, 1]])
    code, doc, _ = run_json(capsys, ["mms", "--instance", path, "--agent", "2"])
    assert code == 0
    assert [r["agent"] for r in doc["results"]] == [2]
    code, _, err = run(capsys, ["mms", "--instance", path, "--agent", "9"])
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize("command", ["mms", "spcheck"])
@pytest.mark.parametrize("agent", ["0", "3", "-1"])
def test_agent_out_of_range(capsys, instance, command, agent):
    path = instance([[3, 1, 1, 1], [1, 1, 1, 1]])
    argv = [command, "--instance", path, "--agent", agent]
    if command == "spcheck":
        argv += ["--alg", "roundrobin"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: --agent {agent} out of range 1..2\n"


def test_mms_cap_exceeded(capsys, instance):
    path = instance([list(range(1, 23)), list(range(1, 23))])
    code, _, err = run(capsys, ["mms", "--instance", path])
    assert code == 1
    assert "error:" in err


def test_allocate_seqpick_with_report(capsys, instance):
    path = instance([[3, 1, 1, 1], [3, 1, 1, 1]])
    code, doc, _ = run_json(capsys, ["allocate", "--instance", path, "--alg", "seqpick"])
    assert code == 0
    # agent 2 picks first: its cheapest two, ties going to the higher index
    assert doc["bundles"] == [[1, 2], [3, 4]]
    assert doc["report"]["max_ratio"] == pytest.approx(4 / 3)


def test_allocate_alpha_certification(capsys, instance):
    path = instance([[3, 1, 1, 1], [3, 1, 1, 1]])
    ok, doc, _ = run_json(
        capsys,
        ["allocate", "--instance", path, "--alg", "seqpick", "--alpha", "1.3334"],
    )
    assert ok == 0 and doc["certified"]
    bad, doc, _ = run_json(
        capsys,
        ["allocate", "--instance", path, "--alg", "seqpick", "--alpha", "1.2"],
    )
    assert bad == 2
    assert doc["certified"] is False
    assert doc["per_agent_pass"] == [False, True]


def test_allocate_randdecl_needs_seed(capsys, instance):
    path = instance([[1, 2, 3], [3, 2, 1]])
    code, _, err = run(capsys, ["allocate", "--instance", path, "--alg", "randdecl"])
    assert code == 1 and "seed" in err
    code, doc, _ = run_json(
        capsys, ["allocate", "--instance", path, "--alg", "randdecl", "--seed", "4"]
    )
    assert code == 0
    assert sorted(j for b in doc["bundles"] for j in b) == [1, 2, 3]
    # with many items, the bundles print as JSON integers
    path = instance([[float(j % 7) for j in range(300)] for _ in range(3)], "big.json")
    code, doc, _ = run_json(
        capsys, ["allocate", "--instance", path, "--alg", "randdecl", "--seed", "4"]
    )
    assert code == 0
    assert sorted(j for b in doc["bundles"] for j in b) == list(range(1, 301))


def test_allocate_dc3_wrong_n(capsys, instance):
    path = instance([[1, 2], [2, 1]])
    code, _, err = run(capsys, ["allocate", "--instance", path, "--alg", "dc3"])
    assert code == 1
    assert "n=3" in err


def test_allocate_order_flag(capsys, instance):
    path = instance([[3, 1, 1, 1], [3, 1, 1, 1]])
    code, doc, _ = run_json(
        capsys,
        ["allocate", "--instance", path, "--alg", "roundrobin", "--order", "2,1"],
    )
    assert code == 0
    assert doc["bundles"][1] == [2, 4]
    code, _, err = run(
        capsys,
        ["allocate", "--instance", path, "--alg", "roundrobin", "--order", "1,1"],
    )
    assert code == 1 and "permutation" in err
    # an empty order is a bad order, not no order
    code, _, err = run(
        capsys,
        ["allocate", "--instance", path, "--alg", "roundrobin", "--order", ""],
    )
    assert code == 1 and "bad --order" in err


@pytest.mark.parametrize("alg", ["seqpick", "randdecl", "dc3"])
def test_allocate_order_is_refused_without_roundrobin(capsys, instance, alg):
    path = instance([[3, 1, 2], [1, 4, 2], [2, 2, 1]])
    code, out, err = run(
        capsys,
        ["allocate", "--instance", path, "--alg", alg, "--seed", "1", "--order", "2,1,3"],
    )
    assert code == 1 and out == ""
    assert err == "error: --order applies only to --alg roundrobin\n"


REFUSED_FLAGS = [
    (
        ["allocate", "--alg", alg, "--seed", "1"],
        "--seed applies only to --alg randdecl",
    )
    for alg in ("seqpick", "roundrobin", "dc3")
] + [
    (["spcheck", "--alg", "seqpick", "--exact"], "--exact applies only to --alg randdecl"),
    (["spcheck", "--alg", "roundrobin", "--exact"], "--exact applies only to --alg randdecl"),
    (["spcheck", "--alg", "dc3", "--exact"], "--exact applies only to --alg randdecl"),
    (
        ["spcheck", "--alg", "randdecl", "--model", "cardinal", "--grid"],
        "--grid applies only to --model cardinal or public, not to randdecl",
    ),
    (
        ["spcheck", "--alg", "roundrobin", "--model", "ordinal", "--grid"],
        "--grid applies only to --model cardinal or public, not to randdecl",
    ),
    (
        ["spcheck", "--alg", "roundrobin", "--grid"],
        "--grid applies only to --model cardinal or public, not to randdecl",
    ),
] + [
    (
        ["spcheck", "--alg", "randdecl", "--model", model, *mode],
        "--model applies only without --alg randdecl",
    )
    for model in ("ordinal", "cardinal", "public")
    for mode in ([], ["--exact"])
] + [
    # dc3 compares bundle costs: refused under ordinal, at any size
    (
        ["allocate", "--alg", "dc3", "--model", "ordinal"],
        "dc3 compares bundle costs, which the ordinal model withholds",
    ),
] + [
    # spcheck's --model defaults to ordinal
    (
        ["spcheck", "--alg", "dc3", *model],
        "dc3 compares bundle costs, which the ordinal model withholds",
    )
    for model in ([], ["--model", "ordinal"])
]


@pytest.mark.parametrize("argv, message", REFUSED_FLAGS)
def test_flags_the_algorithm_ignores_are_refused(capsys, instance, argv, message):
    path = instance([[3, 1, 2], [1, 4, 2], [2, 2, 1]])
    code, out, err = run(capsys, [*argv, "--instance", path])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# the share cap and the Monte-Carlo trial count are constants, not flags
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mms", "--cap", "20"], "--cap 20"),
        (["allocate", "--alg", "seqpick", "--cap", "20"], "--cap 20"),
        (["eval", "--cap", "8"], "--cap 8"),
        (["spcheck", "--alg", "randdecl", "--trials", "20000"], "--trials 20000"),
    ],
)
def test_work_limit_flags_are_unrecognized(capsys, instance, tmp_path, argv, flag):
    path = instance([[3, 1, 2], [1, 4, 2], [2, 2, 1]])
    if argv[0] == "eval":
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"specs": [{"family": "uniform", "n": 2, "m": 5, "seed": 1}], "algorithms": ["seqpick"]}
            )
        )
        files = ["--config", str(config), "--out", str(tmp_path / "table.csv")]
    else:
        files = ["--instance", path]
    code, out, err = run(capsys, [*argv, *files])
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "--alg", "randdecl", "--seed", "1"],
        ["spcheck", "--alg", "randdecl"],
        ["spcheck", "--alg", "randdecl", "--exact"],
    ],
)
def test_randdecl_refuses_a_single_agent(capsys, instance, argv):
    path = instance([[3, 1, 2, 5]])
    code, out, err = run(capsys, [*argv, "--instance", path])
    assert (code, out, err) == (1, "", "error: randdecl needs at least 2 agents\n")


def test_allocate_cap_exceeded_still_emits_bundles(capsys, instance):
    path = instance([list(range(1, 23)), list(range(22, 0, -1))])
    code, out, err = run(
        capsys, ["allocate", "--instance", path, "--alg", "roundrobin"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] is None
    assert "report skipped" in err


def test_spcheck_seqpick_ordinal(capsys, instance):
    path = instance([[2, 1, 1], [1, 1, 2]])
    code, doc, _ = run_json(
        capsys, ["spcheck", "--instance", path, "--alg", "seqpick", "--model", "ordinal"]
    )
    assert code == 0
    assert all(not r["profitable"] for r in doc["reports"])


def test_spcheck_roundrobin_public(capsys, instance):
    path = instance([[3, 1, 1, 1], [1, 1, 1, 3]])
    code, doc, _ = run_json(
        capsys,
        ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "public"],
    )
    assert code == 0
    assert all(not r["profitable"] for r in doc["reports"])


def test_spcheck_public_grid_tie_is_not_profitable(capsys, instance):
    # a grid report that keeps the public ranking keeps the pick: the tie
    # rule of the ranking and of the pick is one
    path = instance([[3, 3, 2, 2, 4, 4], [2, 1, 1, 2, 2, 2], [4, 2, 4, 1, 2, 1]])
    argv = ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "public"]
    code, doc, _ = run_json(capsys, argv + ["--grid", "--agent", "1"])
    assert (code, doc["reports"][0]["profitable"]) == (0, False)


@pytest.mark.parametrize(
    "flags",
    [
        ["--alg", "seqpick", "--model", "ordinal"],
        ["--alg", "roundrobin", "--model", "public", "--grid"],
        ["--alg", "dc3", "--model", "public", "--grid"],
    ],
)
def test_spcheck_strategyproof_pairs_pass_at_m_equal_n(capsys, instance, flags):
    # every agent holds a column maximum, and every rule gives it one pick,
    # which no misreport improves
    path = instance([[3, 1, 2], [1, 3, 2], [2, 1, 3]])
    code, doc, _ = run_json(capsys, ["spcheck", "--instance", path, *flags])
    assert code == 0
    assert not any(r["profitable"] for r in doc["reports"])


SPCHECK_FLAGS = [
    ["--alg", "seqpick", "--model", "ordinal"],
    ["--alg", "seqpick", "--model", "cardinal", "--grid"],
    ["--alg", "roundrobin", "--model", "ordinal"],
    ["--alg", "roundrobin", "--model", "cardinal", "--grid"],
    ["--alg", "roundrobin", "--model", "public", "--grid"],
    ["--alg", "dc3", "--model", "cardinal", "--grid"],
    ["--alg", "dc3", "--model", "public", "--grid"],
    ["--alg", "randdecl", "--exact"],
    ["--alg", "randdecl"],
]
# each example writes its own instance and reads its own output
PER_EXAMPLE = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def spchecks(draw, costs, checks=SPCHECK_FLAGS):
    """spcheck flags of `checks` and n x m rows of `costs`, with n = 3 for
    dc3 and 2 or 3 otherwise, and m from n + 1 to 5."""
    flags = draw(st.sampled_from(checks))
    n = 3 if "dc3" in flags else draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, 5))
    return flags, draw(st.lists(st.lists(costs, min_size=m, max_size=m), min_size=n, max_size=n))


@PER_EXAMPLE
@given(check=spchecks(st.integers(1, 9)), k=st.integers(-200, 200))
# agent 2 gains 1 by a misreport, which is 2^-100 after scaling
@example(check=(SPCHECK_FLAGS[2], [[10, 1, 2, 3], [1, 5, 6, 7]]), k=-100)
def test_spcheck_verdicts_do_not_depend_on_the_unit(capsys, instance, check, k):
    # a power of two scales every float sum exactly, so only a tolerance
    # that ignores the unit could move a verdict or an exit code
    flags, rows = check
    verdicts = []
    for scale in (1.0, 2.0**k):
        path = instance([[c * scale for c in row] for row in rows])
        code, doc, _ = run_json(capsys, ["spcheck", "--instance", path, *flags])
        verdicts.append((code, [(r["deviation"], r["profitable"]) for r in doc["reports"]]))
    assert verdicts[0] == verdicts[1]


@PER_EXAMPLE
@given(
    check=spchecks(st.integers(1, 9), [SPCHECK_FLAGS[0], SPCHECK_FLAGS[2]]),
    k=st.integers(-300, 300),
)
def test_serial_pick_ordinal_verdicts_survive_a_power_of_ten(capsys, instance, check, k):
    # 10^k rounds the costs and their sums, yet on integer costs a
    # misreport gains a whole unit or nothing: the exit code and every
    # report's verdict stay the unscaled row's (the deviation named may
    # not, since rounding can make another one cheaper by an ulp)
    flags, rows = check
    verdicts = []
    for scale in (1.0, 10.0**k):
        path = instance([[c * scale for c in row] for row in rows])
        code, doc, _ = run_json(capsys, ["spcheck", "--instance", path, *flags])
        verdicts.append((code, [r["profitable"] for r in doc["reports"]]))
    assert verdicts[0] == verdicts[1]


@PER_EXAMPLE
@given(check=spchecks(st.floats(1e-300, 1e300)))
# the closed form and the enumeration differ here by 2 parts in 1e16
@example(
    check=(
        SPCHECK_FLAGS[7],
        [
            [10 / 3 * 1e6, 10 / 3 * 1e6, 3e7, 3e7, 1e7],
            [20 / 3 * 1e6, 1e7, 10 / 3 * 1e6, 3e7, 2e7],
        ],
    )
)
# agent 2's cost barely varies from trial to trial, so 6 standard errors
# are less than the rounding of its mean
@example(check=(SPCHECK_FLAGS[8], [[1, 1, 1], [506903770104116.0, 506903770104116.0, 2]]))
def test_spcheck_answers_with_an_exit_code_at_any_scale(capsys, instance, check):
    # costs anywhere from 1e-300 to 1e300 give a verdict or a one-line
    # refusal, never a traceback
    flags, rows = check
    path = instance(rows)
    code, _, err = run(capsys, ["spcheck", "--instance", path, *flags])
    assert code in (0, 1, 2)
    assert code != 1 or err.startswith("error: ")


def test_spcheck_detects_manipulation(capsys, instance):
    path = instance([[10, 1, 2, 3], [1, 5, 6, 7]])
    code, doc, _ = run_json(
        capsys,
        [
            "spcheck",
            "--instance",
            path,
            "--alg",
            "roundrobin",
            "--model",
            "ordinal",
            "--agent",
            "2",
        ],
    )
    assert code == 2
    assert doc["reports"][0]["profitable"]


def test_spcheck_randdecl_exact(capsys, instance):
    path = instance([[3, 1, 1, 1], [1, 1, 1, 3]])
    code, doc, _ = run_json(
        capsys, ["spcheck", "--instance", path, "--alg", "randdecl", "--exact"]
    )
    assert code == 0
    # no --model with randdecl; the payload still names the ordinal model
    assert list(doc)[:2] == ["algorithm", "model"] and doc["model"] == "ordinal"
    assert all(r["deviation"] == "truthful" for r in doc["reports"])


def test_spcheck_randdecl_montecarlo_output_is_pinned(capsys, instance):
    # the payload comes from the closed form; the Monte-Carlo engine only
    # cross-checks it, so a change of engine must not move a byte
    path = instance([[5, 1, 3, 2, 4, 1, 2], [2, 2, 6, 1, 1, 3, 4], [1, 3, 1, 4, 2, 2, 5]])
    code, out, err = run(
        capsys, ["spcheck", "--instance", path, "--alg", "randdecl", "--agent", "1"]
    )
    assert (code, err) == (0, "")
    assert out == """{
  "algorithm": "randdecl",
  "model": "ordinal",
  "reports": [
    {
      "agent": 1,
      "truthful_cost": 4.55555555556,
      "best_deviation_cost": 4.55555555556,
      "deviation": "truthful",
      "profitable": false
    }
  ]
}
"""


# the refusal of a grid whose x3 row of agent 1 leaves the float range
GRID_OVERFLOW = (
    "error: agent 1's grid misreports leave the float range, though the instance "
    "does not: each factor times each cost must be >= 0, and 3.0 times the agent's "
    "costs must sum to a finite float; scaling the costs down by a power of two "
    "changes no verdict\n"
)


def test_spcheck_grid_overflow_is_a_clean_error(capsys, instance):
    # factor 2 on 1e308 overflows to inf: the valid instance's grid is refused
    path = instance([[1e308, 1, 1, 1], [1, 2, 3, 4]])
    assert run(capsys, ["validate", "--instance", path])[0] == 0
    code, out, err = run(
        capsys,
        ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "public", "--grid"],
    )
    assert code == 1
    assert out == ""
    assert err == GRID_OVERFLOW


def test_spcheck_grid_row_sum_overflow_is_a_clean_error(capsys, instance):
    # a valid instance (agent 1's row sums to 6e307) whose x3 grid report sums
    # past the float range: the grid is refused, the check without it is not
    path = instance([[3e307, 3e307, 1, 1], [1, 2, 3, 4]])
    assert run(capsys, ["validate", "--instance", path])[0] == 0
    base = ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "cardinal"]
    assert run(capsys, base)[0] == 0
    code, out, err = run(capsys, [*base, "--grid"])
    assert code == 1
    assert out == ""
    assert err == GRID_OVERFLOW


@pytest.mark.parametrize(
    "costs, message",
    # item 1's factor varies slowest: it is 0.5 throughout the first block
    # of 1024 grid rows, none of which leaves the float range
    [
        ([[0.9e308, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]], "non-finite cost at (1,1)"),
        (
            [[5e307, 5e307, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]],
            "costs of row 1 sum past the float range",
        ),
    ],
)
def test_spcheck_grid_overflow_past_the_first_block(capsys, instance, costs, message):
    # `message` is what validation says of agent 1's x3 grid row, whose
    # refusal is the grid's, before any report runs
    assert validate([[3.0 * c for c in costs[0]], costs[1]]) == [message]
    path = instance(costs)
    code, out, err = run(
        capsys,
        ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "public", "--grid"],
    )
    assert (code, out) == (1, "")
    assert err == GRID_OVERFLOW


@pytest.mark.parametrize(
    "flags, searched",
    [
        (["--model", "ordinal"], "8! = 40320 ranking misreports"),
        (["--model", "cardinal"], "8! = 40320 ranking misreports"),
        (
            ["--model", "cardinal", "--grid"],
            "8! = 40320 ranking misreports and 4^8 = 65536 grid misreports",
        ),
        (["--model", "public", "--grid"], "4^8 = 65536 grid misreports"),
    ],
)
def test_spcheck_refuses_past_the_item_limit(capsys, instance, flags, searched):
    path = instance([list(range(1, 9)), list(range(8, 0, -1))])
    code, out, err = run(
        capsys, ["spcheck", "--instance", path, "--alg", "roundrobin", *flags]
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: 8 items means {searched}; the deviation search takes at most 7 "
        "items, so check an instance with fewer items\n"
    )


def test_spcheck_public_without_grid_has_no_item_limit(capsys, instance):
    # the ranking channel is closed and no grid is searched: one run per agent
    path = instance([list(range(1, 9)), list(range(8, 0, -1))])
    code, doc, _ = run_json(
        capsys, ["spcheck", "--instance", path, "--alg", "roundrobin", "--model", "public"]
    )
    assert code == 0
    assert all("channel closed" in r["deviation"] for r in doc["reports"])


def test_spcheck_randdecl_exact_overflow_is_a_clean_error(capsys, instance):
    # enumeration's running total sums to inf: one error line, not a pass or
    # a traceback
    path = instance([[1e308, 1, 1, 1], [1, 2, 3, 4]])
    code, out, err = run(
        capsys, ["spcheck", "--instance", path, "--alg", "randdecl", "--agent", "1", "--exact"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


def test_spcheck_randdecl_exact_past_the_float_sum(capsys, instance):
    # the closed form's pooled sum passes the float range, the expectation
    # does not: it is scaled, and enumeration confirms it
    path = instance([[1e308], [2.0]])
    code, doc, _ = run_json(
        capsys, ["spcheck", "--instance", path, "--alg", "randdecl", "--agent", "1", "--exact"]
    )
    assert code == 0
    [report] = doc["reports"]
    assert report["truthful_cost"] == 5e307
    assert not report["profitable"]


def test_spcheck_randdecl_montecarlo_past_the_float_sum(capsys, instance):
    # each trial's cost is finite but the trials sum past the float range;
    # the estimate is scaled, so it cross-checks the closed form
    path = instance([[1e308, 1, 1, 1], [1, 2, 3, 4]])
    code, doc, _ = run_json(
        capsys, ["spcheck", "--instance", path, "--alg", "randdecl", "--agent", "1"]
    )
    assert code == 0
    [report] = doc["reports"]
    assert report["truthful_cost"] == report["best_deviation_cost"] == 2.5e307
    assert not report["profitable"]


def test_spcheck_randdecl_montecarlo_past_1e154(capsys, instance):
    # the Monte-Carlo trials' squared costs pass the float range, their
    # standard error does not
    path = instance([[3e160, 1e160, 2e160, 5e159], [1e160, 2e160, 3e160, 4e160]])
    code, doc, _ = run_json(capsys, ["spcheck", "--instance", path, "--alg", "randdecl"])
    assert code == 0
    assert not any(r["profitable"] for r in doc["reports"])


def test_spcheck_randdecl_refuses_too_many_label_sets(capsys, instance):
    # 8 agents declare 13 of 64 items each: C(64, 13) label sets
    rng = np.random.default_rng(2019)
    path = instance(rng.uniform(0.0, 1.0, (8, 64)).tolist())
    code, out, err = run(capsys, ["spcheck", "--instance", path, "--alg", "randdecl"])
    assert (code, out) == (1, "")
    assert err == (
        "error: 64 items means C(64, 13) = 13136858812224 label sets; the randomized "
        "deviation search takes at most 200000 of them, so check an instance with "
        "fewer items\n"
    )


OVERFLOW_RUNS = {
    "mms": ["mms", "--agent", "1"],
    "allocate": ["allocate", "--alg", "roundrobin"],
    "spcheck": ["spcheck", "--alg", "roundrobin", "--model", "cardinal"],
}


@pytest.mark.parametrize("command", sorted(OVERFLOW_RUNS))
def test_row_sum_past_float_range_is_refused(capsys, instance, command):
    # each cost is finite but agent 1's sum is not: no Infinity or NaN in the
    # output, and no vacuous pass
    path = instance([[1e308, 1e308, 1e308], [1, 1, 1]])
    code, out, err = run(capsys, [*OVERFLOW_RUNS[command], "--instance", path])
    assert code == 1
    assert out == ""
    assert err == "error: invalid instance: costs of row 1 sum past the float range\n"


def test_validate_reports_row_sum_past_float_range(capsys, instance):
    path = instance([[1, 1, 1], [1e308, 1e308, 1e308]])
    code, doc, _ = run_json(capsys, ["validate", "--instance", path])
    assert code == 1
    assert doc["violations"] == ["costs of row 2 sum past the float range"]


@pytest.mark.parametrize("command", sorted(OVERFLOW_RUNS))
def test_integer_too_large_for_a_float_is_refused(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text('{"costs": [[1' + "0" * 400 + ", 1, 1], [1, 1, 1]]}")
    code, out, err = run(capsys, [*OVERFLOW_RUNS[command], "--instance", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: invalid instance: cost at (1,1) is too large for a float\n"


def test_validate_reports_integer_too_large_for_a_float(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"costs": [[1, 1], [1, 1' + "0" * 400 + "]]}")
    code, doc, _ = run_json(capsys, ["validate", "--instance", str(path)])
    assert code == 1
    assert doc["violations"] == ["cost at (2,2) is too large for a float"]


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_allocate_alpha_must_be_finite(capsys, instance, alpha):
    path = instance([[3, 1, 1, 1], [3, 1, 1, 1]])
    code, out, err = run(
        capsys, ["allocate", "--instance", path, "--alg", "seqpick", f"--alpha={alpha}"]
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --alpha must be a finite number, got {alpha}\n"


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_emit_writes_no_non_standard_json(capsys, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit({"ok": True, "value": value})
    assert capsys.readouterr().out == ""


def test_jsonable_keeps_exact_types_and_rounds_every_float():
    # bools and None stay themselves, not ints; numpy's float64, a float
    # subclass, is rounded as a float is; np.int64 is passed on as it is
    doc = {
        "flags": [True, False, None],
        "name": "seqpick",
        "items": (1, 2, np.int64(3)),
        "costs": [np.float64(0.1 + 0.2), 2 / 3, 1.0],
        "nested": {"ratio": Fraction(4, 3), "rows": [[0.1 + 0.2], (np.float64(1 / 3),)]},
    }
    out = cli._jsonable(doc)
    assert out == {
        "flags": [True, False, None],
        "name": "seqpick",
        "items": [1, 2, 3],
        "costs": [0.3, 0.666666666667, 1.0],
        "nested": {
            "ratio": {"value": 1.33333333333, "exact": "4/3"},
            "rows": [[0.3], [0.333333333333]],
        },
    }
    assert [type(v) for v in out["flags"]] == [bool, bool, type(None)]
    assert [type(v) for v in out["items"]] == [int, int, np.int64]
    assert [type(v) for v in out["costs"]] == [float, float, float]
    assert type(out["nested"]["rows"][1][0]) is float


def test_witness_ordinal_det(capsys):
    code, doc, _ = run_json(capsys, ["witness", "ordinal-det"])
    assert code == 0
    assert doc["value"] == {"value": pytest.approx(4 / 3), "exact": "4/3"}
    assert doc["matches_expected"] is True
    assert sorted(len(b) for b in doc["allocation"]) == [2, 2]


def test_witness_ordinal_rand(capsys):
    code, doc, _ = run_json(capsys, ["witness", "ordinal-rand"])
    assert code == 0
    assert doc["value"]["exact"] == "6/5"
    assert doc["p_star"]["exact"] == "3/5"


def test_eval_writes_csv(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "specs": [{"family": "uniform", "n": 3, "m": 7, "seed": 5}],
                "algorithms": ["seqpick", "roundrobin"],
                "seeds_per_spec": 2,
            }
        )
    )
    out_csv = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, ["eval", "--config", str(config), "--out", str(out_csv)]
    )
    assert code == 0
    assert out == out_csv.read_text()
    lines = out.splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 1 + 2 * 2


def test_eval_names_a_family_without_parameters_plainly(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "specs": [{"family": "identical_ranking", "n": 2, "m": 4, "seed": 1}],
                "algorithms": ["seqpick"],
            }
        )
    )
    code, out, _ = run(capsys, ["eval", "--config", str(config), "--out", str(tmp_path / "t.csv")])
    assert code == 0
    assert out.splitlines()[1].startswith("identical_ranking,2,4,seqpick,1,")


def test_eval_prints_one_line_per_skipped_cell(tmp_path):
    # run as a user runs it: in a process of its own, with no test harness
    # capturing any logging
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "specs": [
                    {"family": "uniform", "n": 2, "m": 6, "seed": 5},
                    {"family": "uniform", "n": 3, "m": 6, "seed": 7},
                ],
                "algorithms": ["dc3", "roundrobin"],
                "seeds_per_spec": 2,
            }
        )
    )
    out_csv = tmp_path / "table.csv"
    src = str(Path(choremms.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["eval", "--config", str(config), "--out", str(out_csv)]
    proc = subprocess.run(
        [sys.executable, "-m", "choremms.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == out_csv.read_text()
    assert len(proc.stdout.splitlines()) == 1 + 6
    assert proc.stderr.splitlines() == [
        f"skipped (uniform(0,1), dc3, seed={seed}): dc3 requires n=3 (got n=2)"
        for seed in (5, 6)
    ]


def test_eval_fixture_specs_must_give_the_fixture_shape(capsys, tmp_path):
    fixture = {"family": "fixture", "name": "public_65", "seed": 1}
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "specs": [
                    {**fixture, "index": 0, "n": 2, "m": 6},
                    {**fixture, "index": 0, "n": 3, "m": 9},
                    {**fixture, "index": 6, "n": 2, "m": 6},
                ],
                "algorithms": ["roundrobin"],
            }
        )
    )
    argv = ["eval", "--config", str(config), "--out", str(tmp_path / "table.csv")]
    code, out, err = run(capsys, argv)
    assert code == 0
    assert strip_runtime(out).splitlines() == [
        "family,n,m,algorithm,seed,max_ratio",
        "fixture(public_65:0),2,6,roundrobin,1,1",
    ]
    assert err.splitlines() == [
        "skipped (fixture(public_65:0), roundrobin, seed=1): "
        "fixture 'public_65' instances are 2x6, not 3x9",
        "skipped (fixture(public_65:6), roundrobin, seed=1): "
        "fixture 'public_65' has instances 0..5, not 6",
    ]


def test_eval_output_is_the_same_at_any_worker_count(capsys, tmp_path):
    # skipped cells of every kind cross the process boundary: a generator
    # error, an algorithm precondition and a cap refusal
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "specs": [
                    {"family": "uniform", "n": 2, "m": 7, "seed": 1},
                    {"family": "correlated", "n": 3, "m": 21, "seed": 2},
                    {"family": "exponential", "n": 3, "m": 6, "seed": 4},
                    {"family": "fixture", "name": "public_65", "index": 6, "n": 2, "m": 6, "seed": 1},
                ],
                "algorithms": ["dc3", "seqpick", "roundrobin"],
                "seeds_per_spec": 3,
            }
        )
    )
    runs = []
    for workers in ("1", "2", "4"):
        out_csv = tmp_path / f"table{workers}.csv"
        argv = ["eval", "--config", str(config), "--out", str(out_csv)]
        code, out, err = run(capsys, [*argv, "--workers", workers])
        assert code == 0
        runs.append((strip_runtime(out), strip_runtime(out_csv.read_text()), err))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    out, written, err = runs[0]
    assert written == out and len(out.splitlines()) == 1 + 15
    skips = err.splitlines()
    assert len(skips) == 21 and all(line.startswith("skipped (") for line in skips)
    assert skips[0] == "skipped (uniform(0,1), dc3, seed=1): dc3 requires n=3 (got n=2)"
    assert skips[-1] == (
        "skipped (fixture(public_65:6), roundrobin, seed=3): "
        "fixture 'public_65' has instances 0..5, not 6"
    )


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_eval_refuses_a_worker_count_below_one(capsys, tmp_path, workers):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"specs": [{"family": "uniform", "n": 2, "m": 5, "seed": 1}], "algorithms": ["seqpick"]}
        )
    )
    out_csv = tmp_path / "table.csv"
    argv = ["eval", "--config", str(config), "--out", str(out_csv), "--workers", workers]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: --workers must be >= 1, got {workers}\n"
    assert not out_csv.exists()


def test_eval_bad_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"algorithms": ["seqpick"]}))
    code, _, err = run(
        capsys, ["eval", "--config", str(config), "--out", str(tmp_path / "t.csv")]
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "config", [[{"specs": [], "algorithms": []}], {"specs": [3], "algorithms": []}]
)
def test_eval_config_not_an_object(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, ["eval", "--config", str(path), "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, seeds_per_spec",
    [
        ({"n": "3"}, 1),
        ({"seed": 1.5}, 1),
        ({}, -2),
        ({}, "2"),
        ({"n": MISSING, "m": MISSING, "seed": MISSING}, 1),  # MISSING: left out
    ],
)
def test_eval_config_field_types(capsys, tmp_path, spec, seeds_per_spec):
    entry = {"family": "uniform", "n": 3, "m": 5, "seed": 1, **spec}
    missing = [name for name, value in entry.items() if value is MISSING]
    config = {
        "specs": [{name: value for name, value in entry.items() if value is not MISSING}],
        "algorithms": ["seqpick"],
        "seeds_per_spec": seeds_per_spec,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, ["eval", "--config", str(path), "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if missing:
        assert err == f"error: missing spec fields {missing}\n"
    else:
        assert "must be an integer" in err


@pytest.mark.parametrize(
    "specs, algorithms, message",
    [
        ([], ["seqpick"], '"specs" must not be empty'),
        (None, [], '"algorithms" must not be empty'),
        (None, ["seqpick", "seqpick"], "algorithm 'seqpick' is listed twice"),
        (None, ["seqpick", "greedy"], "unknown algorithm 'greedy'"),
        (
            [dict(family="uniform", n=2, m=4, seed=1, rate=5.0, rho=0.9, name="x", index=3)],
            ["seqpick"],
            "spec field \"rate\" does not apply to family 'uniform'",
        ),
        (
            [{"family": "identical_ranking", "n": 2, "m": 4, "seed": 1, "lo": 2.0}],
            ["seqpick"],
            "spec field \"lo\" does not apply to family 'identical_ranking'",
        ),
    ],
)
def test_eval_degenerate_config(capsys, tmp_path, specs, algorithms, message):
    if specs is None:
        specs = [{"family": "uniform", "n": 3, "m": 5, "seed": 1}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"specs": specs, "algorithms": algorithms}))
    out_csv = tmp_path / "t.csv"
    code, out, err = run(capsys, ["eval", "--config", str(path), "--out", str(out_csv)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not out_csv.exists()


def test_usage_errors_exit_1(capsys, instance):
    path = instance([[1, 2], [2, 1]])
    assert main(["allocate", "--instance", path, "--alg", "bogus"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_floats_rounded_to_12_sig_digits(capsys, instance):
    path = instance([[1 / 3, 1 / 7, 2 / 3], [0.25, 0.5, 0.125]])
    code, out, _ = run(capsys, ["allocate", "--instance", path, "--alg", "roundrobin"])
    assert code == 0
    for token in out.split():
        token = token.rstrip(",")
        try:
            value = float(token)
        except ValueError:
            continue
        if not value.is_integer():
            digits = token.lstrip("-0.").replace(".", "")
            assert len(digits) <= 12, token
