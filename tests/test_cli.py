import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from syncmdp import (SupportSet, Verdict, analyze, checks, cli, engine, example_model,
                     example_path, serialize_model)
from syncmdp.cli import main
from syncmdp.report import build_report

from conftest import ABSORBING, CHAIN, feeder_cycle, prime_cycles


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
    assert report["report-version"] == 3
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
    # a malformed flag is a usage error, like any other flag value
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target", "--query", "nope")
    assert code == 1 and "argument --query: expected MODE:WINMODE" in err and out == ""


@pytest.mark.parametrize("query", ["eventually", "eventually:sure:x", ":sure", "eventually:",
                                   "Eventually:sure", "sure:eventually"])
def test_query_that_names_no_cell_is_a_usage_error(capsys, query):
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target", "--query", query)
    assert code == 1 and out == ""
    assert "syncmdp analyze: error: argument --query: expected MODE:WINMODE" in err
    assert f"got {query!r}" in err


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


def self_loops(states, actions):
    return [{"from": q, "action": a, "to": q, "prob": "1"} for q in states for a in actions]


# Wrong-typed or oversized fields: each must be an input error at its location.
MALFORMED = [
    ({"transitions": 5}, "transitions"),
    ({"targets": []}, "targets"),
    ({"transitions": [{"from": ["t"], "action": "a", "to": "t", "prob": "1"}]},
     "transitions[0]"),
    ({"initial": {"t": "1" * 5001}}, "initial"),
    # an Arabic-Indic one: only ASCII digits are rationals
    ({"transitions": [{"from": "t", "action": "a", "to": "t", "prob": "\u0661"}]},
     "transitions[0]"),
    # JSON can escape a lone surrogate, but no UTF-8 output can print a name holding one
    ({"states": ["t", "\ud800"], "transitions": self_loops(["t", "\ud800"], ["a"])}, "states"),
    ({"actions": ["a", "b\udcff"], "transitions": self_loops(["t"], ["a", "b\udcff"])},
     "actions"),
    ({"targets": {"target": ["t"], "\udfff": ["t"]}}, "targets"),
    ({"targets": {"target": ["t", "t"]}}, "targets[target]"),
]


@pytest.mark.parametrize("change,location", MALFORMED)
def test_malformed_field_is_located_input_error(capsys, tmp_path, change, location):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(ABSORBING, **change)))
    code, _, err = run(capsys, "analyze", "--model", str(bad), "--target", "target")
    assert code == 2
    assert f"input error: {location}: " in err


def test_lone_surrogate_name_is_an_input_error_without_a_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(ABSORBING, states=["t", "\ud800"],
                                   transitions=self_loops(["t", "\ud800"], ["a"]))))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "syncmdp", "analyze", "--model", str(bad),
                           "--target", "target"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert "input error: states: " in done.stderr and "Traceback" not in done.stderr


def test_consistency_gate_failure_exit_code(capsys, monkeypatch):
    # bounded always "yes" without positive always: the gate names the identity
    monkeypatch.setattr(engine, "decide_bounded", lambda *args, **kwargs: Verdict(True))
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target")
    assert code == 4 and out == ""
    assert err.startswith("internal consistency gate failed (engine bug):\n")
    assert "\n  bounded always without positive always\n" in err


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
    # the traces and the step profile grow with the square of the horizon
    ["verify", "--horizon", "99999999999999999999999"],
])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    target = [] if argv[0] == "regions" else ["--target", "target"]
    code, _, err = run(capsys, *argv, "--model", example_path("funnel"), *target)
    assert code == 1
    assert "error: " in err and "Traceback" not in err


def test_horizon_flags_stop_at_their_bound(capsys):
    args = ["verify", "--model", example_path("funnel"), "--target", "target", "--horizon"]
    assert cli._build_parser().parse_args([*args, str(cli.MAX_HORIZON)]).horizon == 10000
    code, _, err = run(capsys, *args, str(cli.MAX_HORIZON + 1))
    assert code == 1
    assert "argument --horizon: expected an integer from 0 to 10000, got 10001" in err


@pytest.mark.parametrize("argv, message", [
    (["--max-lasso", "-1"], "argument --max-lasso: expected an integer of at least 0, got -1"),
    (["--subset-width", "ten"], "argument --subset-width: invalid integer value: 'ten'"),
])
def test_integer_flag_messages(capsys, argv, message):
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target", *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: syncmdp analyze ")
    assert f"syncmdp analyze: error: {message}\n" in err


def test_query_cell_names_a_cell_of_the_matrix():
    assert cli.query_cell("strongly:bounded") == ("strongly", "bounded")
    cells = {cli.query_cell(f"{mode}:{win}") for mode in cli.SYNC_MODES for win in cli.WIN_MODES}
    assert len(cells) == 20


def test_zero_flag_values_are_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--model", example_path("funnel"),
                       "--target", "target", "--budget", "0", "--horizon", "0",
                       "--enum-depth", "0")
    assert code == 0 and "oracle checks" in out


def test_bad_query_is_rejected_before_the_analysis(capsys):
    # a one-support lasso guard would trip (exit 3) if the analysis ran first
    code, out, err = run(capsys, "analyze", "--model", example_path("funnel"),
                         "--target", "target", "--max-lasso", "1", "--query", "nope")
    assert code == 1 and "argument --query:" in err and out == ""


def test_usage_error(capsys):
    assert main([]) == 1
    assert main(["analyze"]) == 1


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


def test_readme_usage_lists_every_flag_of_each_command():
    # each `syncmdp <cmd>` line of README's CLI block, with its continuation
    # lines, names exactly the options that command's parser takes
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("syncmdp "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
              for name, p in subparsers.items()}
    assert documented == parsed


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


def test_subset_width_guard_exit_code(capsys, tmp_path):
    # the subset-width guard bounds the fixpoint bound Z of the almost-sure weakly
    # search; here Z is the whole target, which fails the second condition, so
    # the search must go on past it into proper subsets
    narrow, wide = tmp_path / "feeders1.json", tmp_path / "feeders17.json"
    narrow.write_text(json.dumps(feeder_cycle(1)))
    wide.write_text(json.dumps(feeder_cycle(17)))
    code, _, err = run(capsys, "analyze", "--model", str(narrow), "--target", "target",
                       "--subset-width", "1")
    assert code == 3
    assert err == ("guard tripped at stage subset-search: fixpoint bound "
                   "has 2 of the target's 2 states, guard is 1\n")
    code, out, err = run(capsys, "analyze", "--model", str(narrow), "--target", "target",
                         "--query", "weakly:almost-sure")
    assert (code, out, err) == (0, "weakly:almost-sure = yes\n", "")
    code, _, err = run(capsys, "analyze", "--model", str(wide), "--target", "target")
    assert code == 3
    assert "fixpoint bound has 18 of the target's 18 states, guard is 16" in err


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


def test_verify_enumerates_deeper_than_the_recursion_limit(capsys, tmp_path):
    # weakly fails on the chain (n = 2), and depth + 1 steps pass the cap 2^n,
    # so both sync caps count along the one pure strategy enumerated to depth
    # (the prefix dips search only to depth n)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    depth = sys.getrecursionlimit() + 200
    code, out, err = run(capsys, "verify", "--model", str(path), "--target", "target",
                         "--enum-depth", str(depth), "--json", str(tmp_path / "report.json"))
    assert (code, err) == (0, "")
    caps = {item["name"]: item for item in json.loads((tmp_path / "report.json").read_text())[
        "oracle"] if item["name"].endswith("sync-count-cap")}
    assert caps == {
        "full-sync-count-cap": {"name": "full-sync-count-cap", "status": "pass",
                                "info": {"cap": 4, "enumeration_depth": depth}},
        "near-sync-count-cap": {"name": "near-sync-count-cap", "status": "pass",
                                "info": {"cap": 4, "enumeration_depth": depth,
                                         "enumerated": 1}}}


def test_verify_failed_check_exit_code(capsys, tmp_path, monkeypatch):
    def planted(ctx):
        return "fail", {"reason": "planted"}
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
              f"--budget {checks.DEFAULT_CHECK_BUDGET} --max-lasso {1 << 16} "
              f"--subset-width 16")
    assert err.splitlines()[-1] == replay
    code, _, err = run(capsys, *shlex.split(replay)[1:])
    assert code == 5
    assert err.splitlines()[-1] == replay
    # the replay keeps the guard flags: this 17-state target's fixpoint bound is
    # all of it and fails the second condition, so the subset search trips at the
    # default width, but not at the width the failing run used (the search then
    # hits the target without its feeder among the 16-state subsets)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(feeder_cycle(1, loops=15)))
    code, _, err = run(capsys, "verify", "--model", str(path), "--target", "target")
    assert code == 3 and "guard tripped at stage subset-search" in err
    code, _, err = run(capsys, "verify", "--model", str(path), "--target", "target",
                       "--subset-width", "17")
    assert code == 5
    replay = err.splitlines()[-1]
    assert "--max-lasso 65536 --subset-width 17" in replay
    code, _, err = run(capsys, *shlex.split(replay)[1:])
    assert code == 5
    assert err.splitlines()[-1] == replay


def test_replay_pins_a_default_horizon_clamped_to_the_bound(capsys, monkeypatch):
    # the default horizon max(50, 4 * switch) is clamped to the flag's bound, so
    # the replay line always pins it, and the flag accepts it
    def planted(ctx):
        return "fail", {"reason": "planted"}
    monkeypatch.setitem(checks.ALL_CHECKS, "lasso-integrity", planted)
    monkeypatch.setattr(checks, "MAX_HORIZON", 49)
    monkeypatch.setattr(cli, "MAX_HORIZON", 49)
    code, _, err = run(capsys, "verify", "--model", example_path("loopback"),
                       "--target", "target")
    replay = err.splitlines()[-1]
    assert code == 5 and " --horizon 49 " in replay
    code, _, err = run(capsys, *shlex.split(replay)[1:])
    assert code == 5 and err.splitlines()[-1] == replay


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_counter_product_guard_trips_before_building(capsys, tmp_path, command):
    # mass on every state of cycles 3..13 lies in no Pre^i of the cycle starts,
    # so limit-sure eventually asks for M x [60060]: 2,582,580 states, past the
    # guard on the product's states, which trips before the region's fixpoint
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(prime_cycles((3, 4, 5, 7, 11, 13), spread=True)))
    code, out, err = run(capsys, command, "--model", str(path), "--target", "target")
    assert (code, out) == (3, "")
    assert err.startswith("guard tripped at stage counter-product: ")
    assert "M x [60060] on 43 states has 2582580 states, guard is 2097152" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_counter_product_region_on_counter_masks(capsys, tmp_path, command):
    # M x [2310] on 28 states has 64,680 states: its region is 28 counter masks of
    # 2,310 bits, so no product table is built. Every state's mass reaches its
    # cycle start at a different phase, so limit-sure eventually is a no
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(prime_cycles((2, 3, 5, 7, 11), spread=True)))
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, command, "--model", str(path), "--target", "target",
                       "--json", str(out_path))
    assert (code, err) == (0, "")
    report = json.loads(out_path.read_text())
    cert = report["verdicts"]["eventually"]["limit-sure"]["certificate"]
    assert (cert["r"], cert["via"]) == (2310, None)
    statuses = {item["name"]: item["status"] for item in report["oracle"] or ()}
    assert "fail" not in statuses.values()
    assert bool(statuses) == (command == "verify")


# one action over three states, every probability the text "10/20"
HALVES = {
    "states": ["q0", "q1", "q2"], "actions": ["a"],
    "transitions": [{"from": q, "action": "a", "to": q2, "prob": "10/20"}
                    for q in ("q0", "q1", "q2") for q2 in ("q0", "q1", "q2") if q != q2],
    "initial": {"q0": "1"},
    "targets": {"target": ["q0"]},
}


def halves_with(tmp_path, prob):
    """HALVES with its fifth probability, transitions[4], replaced, as a model file."""
    doc = {**HALVES, "transitions": [dict(tr) for tr in HALVES["transitions"]]}
    doc["transitions"][4]["prob"] = prob
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("prob", [0.5, 1, True, ["1"], {}, None, "1/0", "-1/2",
                                  "1 0/20", "10/2 0", "10 20", "\uff11/\uff12",
                                  "\u00a010/20"])
def test_malformed_prob_after_cached_repeats(capsys, tmp_path, prob):
    # transitions[0..3] parse "10/20" once and reuse it; the fifth prob is
    # malformed and is reported at its own location, whatever the cache holds
    code, out, err = run(capsys, "analyze", "--model", str(halves_with(tmp_path, prob)),
                         "--target", "target")
    assert (code, out) == (2, "")
    assert err.startswith("input error: transitions[4]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("prob", [" 10/20", "10/20 ", "10 / 20", "\t10/ 20\n", "1/2"])
def test_prob_variants_of_a_cached_text_parse_alone(capsys, tmp_path, prob):
    # the cache is keyed by the text: a variant of "10/20" is parsed on its own
    code, _, err = run(capsys, "analyze", "--model", str(halves_with(tmp_path, prob)),
                       "--target", "target", "--json", str(tmp_path / "report.json"))
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "report.json").read_text())["model"]["alpha"] == "1/2"


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
        eps = next(b for b in map(report["bounds"].__getitem__, cell["bounds"])
                   if b["kind"] == "eps_weakly")
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


def test_query_json_file_is_the_cell_as_one_line_json(capsys, tmp_path):
    out_path = tmp_path / "cell.json"
    code, out, _ = run(capsys, "analyze", "--model", example_path("funnel"), "--target",
                       "target", "--query", "always:limit-sure", "--json", str(out_path))
    assert code == 0 and out == "always:limit-sure = no\n"
    pm = example_model("funnel")
    report = build_report(analyze(pm.mdp, pm.initial, pm.targets["target"]), "target")
    cell = report["verdicts"]["always"]["limit-sure"]
    assert cell["bounds"]  # a cell carrying a shared certificate
    # self-contained: the certificates themselves, not indices into the report's table
    bounds = [report["bounds"][i] for i in cell["bounds"]]
    assert all(b["kind"] == "eps_always" for b in bounds)
    assert out_path.read_text() == json.dumps({**cell, "bounds": bounds}) + "\n"


@pytest.mark.parametrize("which", ["pre-lasso", "mec", "almost-sure"])
def test_regions_json_file_matches_stdout(capsys, tmp_path, which):
    out_path = tmp_path / "regions.json"
    code, out, _ = run(capsys, "regions", "--model", example_path("twophase"), "--set",
                       "target", "--which", which, "--json", str(out_path))
    assert code == 0
    assert out_path.read_text() == out == json.dumps(json.loads(out)) + "\n"


# the step profile's totals grow as 4^i: past step ~7,100 the least slack of
# `step-decay-cap` is a rational of more than 4,300 digits
SLOW_DECAY = {
    "states": ["a", "b", "c", "t"], "actions": ["x"],
    "transitions": [
        *({"from": s, "action": "x", "to": to, "prob": p}
          for s in ("a", "c") for to, p in (("a", "1/2"), ("b", "1/4"), ("t", "1/4"))),
        {"from": "b", "action": "x", "to": "t", "prob": "1"},
        {"from": "t", "action": "x", "to": "t", "prob": "1"},
    ],
    "initial": {"a": "1/2", "c": "1/2"},
    "targets": {"goal": ["t"]},
}


def test_verify_reports_a_rational_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(SLOW_DECAY))
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--model", str(path), "--target", "goal",
                       "--horizon", "10000", "--json", str(out_path))
    assert code == 0 and err == ""
    info = {item["name"]: item for item in json.loads(out_path.read_text())["oracle"]}
    decay = info["step-decay-cap"]
    assert decay["status"] == "pass"
    slack = decay["info"]["min_slack"]
    assert slack["exact"] is None and -3100 < slack["log10"] < -2900


@pytest.mark.parametrize("where", ["initial", "transitions"])
def test_sum_past_the_digit_limit_is_a_located_input_error(capsys, tmp_path, where):
    # six masses 1/(10^900 + k): their sum's denominator has about 5,400 digits
    masses = {f"s{k}": f"1/{10 ** 900 + k}" for k in range(6)}
    doc = {"states": list(masses), "actions": ["a"],
           "transitions": [{"from": s, "action": "a", "to": s, "prob": "1"} for s in masses],
           "initial": {"s0": "1"}, "targets": {"t": ["s0"]}}
    if where == "initial":
        doc["initial"] = masses
    else:
        doc["transitions"][0:1] = [{"from": "s0", "action": "a", "to": s, "prob": p}
                                   for s, p in masses.items()]
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "--model", str(path), "--target", "t")
    prefix = {"initial": "input error: initial: distribution does not sum to 1",
              "transitions": "input error: transitions: distribution for (s0, a) "
                             "does not sum to 1"}[where]
    assert code == 2 and err.startswith(prefix + " (log10 of the sum: -899.2")
    assert err.endswith(")\n") and "Exceeds the limit" not in err
