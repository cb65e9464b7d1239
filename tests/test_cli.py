import json
import math
import shlex
from pathlib import Path

import pytest

from syncmdp import (SupportSet, analyze, checks, cli, example_path, serialize_model,
                     example_model)
from syncmdp.checks import CheckResult
from syncmdp.cli import main
from syncmdp.report import build_report

from conftest import ABSORBING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_funnel_matrix(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "target", "--json", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["report-version"] == 1
    row = report["verdicts"]["eventually"]
    assert row["sure"]["answer"] == "no"
    assert row["almost-sure"]["answer"] == "no"
    assert row["limit-sure"]["answer"] == "yes"
    assert row["positive"]["answer"] == "yes"
    assert row["bounded"]["answer"] == "yes"
    for mode in ("always", "weakly", "strongly"):
        for win in ("sure", "almost-sure"):
            assert report["verdicts"][mode][win]["answer"] == "no"
    assert report["model"]["alpha"] == "1/2"
    assert "eventually" in out


def test_analyze_drain_rows(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "--model", example_path("drain"),
                     "--target", "target", "--json", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    for mode in ("always", "weakly", "strongly"):
        assert report["verdicts"][mode]["positive"]["answer"] == "yes"
        assert report["verdicts"][mode]["bounded"]["answer"] == "no"
    assert report["verdicts"]["eventually"]["positive"]["answer"] == "yes"
    assert report["verdicts"]["eventually"]["bounded"]["answer"] == "yes"


def test_analyze_single_query(capsys):
    code, out, _ = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "target", "--query", "eventually:limit-sure")
    assert code == 0
    assert out.strip() == "eventually:limit-sure = yes"


def test_analyze_bad_query(capsys):
    code, _, err = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "target", "--query", "nope")
    assert code == 2 and "query" in err


def test_missing_target_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "nothere")
    assert code == 2
    assert "unknown target" in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--model", str(tmp_path / "nope.json"),
                       "--target", "t")
    assert code == 2


def test_unreadable_model_is_input_error(capsys, tmp_path):
    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for path in (not_utf8, tmp_path):
        code, _, err = run(capsys, "analyze", "--model", str(path), "--target", "t")
        assert code == 2 and "input error" in err


def test_malformed_model_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": []}')
    code, _, err = run(capsys, "analyze", "--model", str(bad), "--target", "t")
    assert code == 2


def test_engine_key_error_is_not_an_input_error(capsys, monkeypatch):
    # no input path raises KeyError, so one from the engine is a bug, not exit 2
    def planted(*args, **kwargs):
        raise KeyError("planted")
    monkeypatch.setattr(cli, "analyze", planted)
    with pytest.raises(KeyError, match="planted"):
        main(["analyze", "--model", example_path("funnel"), "--target", "target"])
    assert "input error" not in capsys.readouterr().err


# Wrong-typed or oversized fields: each must be an input error at its location.
MALFORMED = [
    ({"transitions": 5}, "transitions"),
    ({"targets": []}, "targets"),
    ({"transitions": [{"from": ["t"], "action": "a", "to": "t", "prob": "1"}]},
     "transitions[0]"),
    ({"initial": {"t": "1" * 5001}}, "initial"),
]


@pytest.mark.parametrize("change,location", MALFORMED)
def test_malformed_field_is_located_input_error(capsys, tmp_path, change, location):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(ABSORBING, **change)))
    code, _, err = run(capsys, "analyze", "--model", str(bad), "--target", "target")
    assert code == 2
    assert f"input error: {location}: " in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--max-lasso", "-1"],
    ["analyze", "--subset-width", "-2"],
    ["regions", "--set", "target", "--which", "mec", "--max-lasso", "-1"],
    ["verify", "--budget", "-1"],
    ["verify", "--horizon", "-1"],
    ["verify", "--enum-depth", "-5"],
    ["verify", "--horizon", "ten"],
    ["analyze", "--budget", "5"],
    ["regions", "--set", "target", "--which", "mec", "--budget", "5"],
])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    target = [] if argv[0] == "regions" else ["--target", "target"]
    code, _, err = run(capsys, *argv, "--model", example_path("funnel"), *target)
    assert code == 1
    assert "error: " in err and "Traceback" not in err


def test_zero_flag_values_are_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--model", example_path("funnel"),
                       "--target", "target", "--budget", "0", "--horizon", "0",
                       "--enum-depth", "0")
    assert code == 0 and "oracle checks" in out


def test_bad_query_is_rejected_before_the_analysis(capsys):
    # a one-support lasso guard would trip (exit 3) if the analysis ran first
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target", "--max-lasso", "1", "--query", "nope")
    assert code == 2 and "query" in err and out == ""


def test_usage_error(capsys):
    assert main([]) == 1
    assert main(["analyze"]) == 1


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


def test_analyze_with_strategy_tables(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "--model", example_path("twophase"),
                     "--target", "target", "--json", str(out_path), "--strategies")
    assert code == 0
    report = json.loads(out_path.read_text())
    witness = report["verdicts"]["strongly"]["bounded"]["witness"]
    assert witness["label"] == "freezing"
    assert witness["memory_size"] >= 2
    assert any(row == {"a": "1"} for row in witness["choice"].values())


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "target", "--max-lasso", "2")
    assert code == 3
    assert "guard" in err


def test_guard_names_the_first_stage(capsys):
    # the analysis builds the pre-lasso before the support lasso, whichever
    # matrix cell needs one first
    code, _, err = run(capsys, "analyze", "--model", example_path("loopback"),
                       "--target", "target", "--max-lasso", "1")
    assert code == 3
    assert "stage pre-lasso" in err


def test_subset_width_guard_exit_code(capsys):
    # the almost-sure weakly search over subsets of the target is the stage
    # the subset-width guard bounds; funnel's target {q2} does not decide the
    # cell by itself (s0 limit-sure reaches it, but q2 cannot limit-sure
    # return to Pre({q2})), so the search must go on past it
    code, _, err = run(capsys, "analyze", "--model", example_path("funnel"),
                       "--target", "target", "--subset-width", "0")
    assert code == 3
    assert "stage subset-search" in err


def test_subset_width_guard_spares_a_target_that_decides_alone(capsys, tmp_path):
    # T = t0..t16 is one deterministic cycle, so T passes both conditions of
    # the almost-sure weakly search and is its first hit: 17 states over the
    # default guard of 16, and no proper subset walked
    names = [f"t{i}" for i in range(17)]
    doc = {"states": names, "actions": ["a"],
           "transitions": [{"from": q, "action": "a", "to": nxt, "prob": "1"}
                           for q, nxt in zip(names, names[1:] + names[:1])],
           "initial": {"t0": "1"}, "targets": {"target": names}}
    path = tmp_path / "cycle17.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "--model", str(path), "--target", "target",
                         "--query", "weakly:almost-sure")
    assert (code, out, err) == (0, "weakly:almost-sure = yes\n", "")


def test_verify_failed_check_exit_code(capsys, tmp_path, monkeypatch):
    def planted(ctx):
        return CheckResult("lasso-integrity", "fail", {"reason": "planted"})
    monkeypatch.setitem(checks.ALL_CHECKS, "lasso-integrity", planted)
    out_path = tmp_path / "verify.json"
    code, out, err = run(capsys, "verify", "--model", example_path("loopback"),
                         "--target", "target", "--json", str(out_path))
    assert code == 5
    assert "FAILED checks: lasso-integrity" in err
    report = json.loads(out_path.read_text())
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert statuses["lasso-integrity"] == "fail"
    assert "oracle checks" in out
    # the replay line names this run's settings, the default horizon resolved
    pm = example_model("loopback")
    horizon = checks.CheckContext(analyze(pm.mdp, pm.initial, pm.targets["target"])).horizon
    replay = (f"syncmdp verify --model {example_path('loopback')} --target target "
              f"--horizon {horizon} --enum-depth {checks.DEFAULT_ENUM_DEPTH} "
              f"--budget {checks.DEFAULT_CHECK_BUDGET}")
    assert err.splitlines()[-1] == replay
    code, _, err = run(capsys, *shlex.split(replay)[1:])
    assert code == 5
    assert err.splitlines()[-1] == replay


def test_regions_pre_lasso(capsys):
    code, out, _ = run(capsys, "regions", "--model", example_path("funnel"),
                       "--set", "target", "--which", "pre-lasso")
    assert code == 0
    data = json.loads(out)
    assert data == {"supports": [["q2"], ["q1"]], "k": 1, "r": 1}


def test_regions_mec(capsys):
    code, out, _ = run(capsys, "regions", "--model", example_path("twophase"),
                       "--set", "target", "--which", "mec")
    assert code == 0
    data = json.loads(out)
    assert data["components"] == [["q1", "q2"], ["q3", "q4"]]


def test_regions_empty_set(capsys, tmp_path):
    pm = example_model("funnel")
    pm.targets["void"] = SupportSet(pm.mdp.n)
    path = tmp_path / "model.json"
    path.write_text(serialize_model(pm))
    for which in ("safety", "reach", "almost-sure"):
        code, out, _ = run(capsys, "regions", "--model", str(path),
                           "--set", "void", "--which", which)
        assert code == 0
        assert list(json.loads(out).values()) == [[]]


def test_verify_loopback(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, err = run(capsys, "verify", "--model", example_path("loopback"),
                         "--target", "target", "--json", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["oracle"] is not None
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert statuses["lasso-integrity"] == "pass"
    assert statuses["freezing-lower-bound"] == "pass"
    assert "fail" not in statuses.values()
    assert "FAILED" not in err


def test_verify_respects_horizon_flag(capsys):
    code, out, _ = run(capsys, "verify", "--model", example_path("drain"),
                       "--target", "target", "--horizon", "10")
    assert code == 0
    assert "oracle checks" in out


@pytest.mark.parametrize("horizon", ["0", "1"])
def test_verify_horizon_below_the_countdown_depth(capsys, tmp_path, horizon):
    # chain q0 -> q1 -> q2 -> q3 (absorbing), target {q2}: the countdown witness
    # reaches the target at step k = 2, past the horizon
    states = ["q0", "q1", "q2", "q3"]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "states": states, "actions": ["a"],
        "transitions": [{"from": q, "action": "a", "to": states[min(i + 1, 3)], "prob": "1"}
                        for i, q in enumerate(states)],
        "initial": {"q0": "1"},
        "targets": {"target": ["q2"]},
    }))
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--model", str(path), "--target", "target",
                       "--horizon", horizon, "--json", str(out_path))
    assert (code, err) == (0, "")
    report = json.loads(out_path.read_text())
    assert report["verdicts"]["eventually"]["sure"]["certificate"]["k"] == 2
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert statuses["witness-soundness"] == "pass"


def test_verify_prefix_dips_below_n(capsys, tmp_path):
    # all initial mass starts in the target, so the optimum dips only after
    # step 0; the prefix dips read the first n + 1 = 11 steps whatever the horizon
    model = Path(__file__).parent / "golden" / "prime-cycles.model.json"
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--model", str(model), "--target", "target",
                       "--horizon", "0", "--json", str(out_path))
    assert (code, err) == (0, "")
    report = json.loads(out_path.read_text())
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert statuses["always-prefix-dip"] == statuses["strongly-prefix-dip"] == "pass"


def test_verify_absorbing_model_vacuous_pass(capsys, tmp_path):
    path = tmp_path / "absorbing.json"
    path.write_text(json.dumps({
        "states": ["t"], "actions": ["a"],
        "transitions": [{"from": "t", "action": "a", "to": "t", "prob": "1"}],
        "initial": {"t": "1"},
        "targets": {"target": ["t"]},
    }))
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--model", str(path),
                       "--target", "target", "--json", str(out_path))
    assert code == 0 and "FAILED" not in err
    report = json.loads(out_path.read_text())
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert "fail" not in statuses.values()


# n = 5, one action, smallest probability 1/4: eps_weakly = (1/4)^7168 / 5^33
# has a denominator of more than 4,300 decimal digits.
LONG_BOUND_MODEL = {
    "states": ["q0", "q1", "q2", "q3", "q4"], "actions": ["a"],
    "transitions": [
        {"from": "q0", "action": "a", "to": "q0", "prob": "1/4"},
        {"from": "q0", "action": "a", "to": "q1", "prob": "3/4"},
        {"from": "q1", "action": "a", "to": "q2", "prob": "1"},
        {"from": "q2", "action": "a", "to": "q3", "prob": "1"},
        {"from": "q3", "action": "a", "to": "q4", "prob": "1"},
        {"from": "q4", "action": "a", "to": "q0", "prob": "1/4"},
        {"from": "q4", "action": "a", "to": "q4", "prob": "3/4"},
    ],
    "initial": {"q0": "1"},
    "targets": {"target": ["q1", "q2", "q3", "q4"]},
}


def test_analyze_bound_beyond_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_BOUND_MODEL))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--model", str(path),
                         "--target", "target", "--json", str(out_path))
    assert code == 0, err
    report = json.loads(out_path.read_text())
    for win in ("almost-sure", "limit-sure"):
        cell = report["verdicts"]["weakly"][win]
        assert cell["answer"] == "no"
        eps = next(b for b in cell["bounds"] if b["kind"] == "eps_weakly")
        assert eps["exact"] is None
        assert math.isfinite(eps["log10"]) and eps["log10"] < -4300
    assert "eps_weakly = 10^-4338.63" in out
    assert "None" not in out


def test_verify_bound_beyond_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_BOUND_MODEL))
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--model", str(path),
                       "--target", "target", "--json", str(out_path))
    assert code == 0 and "FAILED" not in err
    report = json.loads(out_path.read_text())
    statuses = {item["name"]: item["status"] for item in report["oracle"]}
    assert "fail" not in statuses.values()
    # the check reads the exact value even though the report omits its digits
    assert statuses["near-sync-count-cap"] == "pass"


def test_query_json_file_is_the_cell_as_indent_2_json(capsys, tmp_path):
    out_path = tmp_path / "cell.json"
    code, out, _ = run(capsys, "analyze", "--model", example_path("funnel"), "--target",
                       "target", "--query", "always:limit-sure", "--json", str(out_path))
    assert code == 0 and out == "always:limit-sure = no\n"
    pm = example_model("funnel")
    report = build_report(analyze(pm.mdp, pm.initial, pm.targets["target"]), "target")
    cell = report["verdicts"]["always"]["limit-sure"]
    assert cell["bounds"]  # a cell carrying a shared certificate
    assert out_path.read_text() == json.dumps(cell, indent=2) + "\n"


@pytest.mark.parametrize("which", ["pre-lasso", "mec", "almost-sure"])
def test_regions_json_file_matches_stdout(capsys, tmp_path, which):
    out_path = tmp_path / "regions.json"
    code, out, _ = run(capsys, "regions", "--model", example_path("twophase"), "--set",
                       "target", "--which", which, "--json", str(out_path))
    assert code == 0
    assert out_path.read_text() == out == json.dumps(json.loads(out), indent=2) + "\n"
