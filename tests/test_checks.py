"""The oracle battery itself: full run over a corpus sample plus targeted
assertions for the checks the other test modules do not already drive.
"""

from fractions import Fraction

import pytest

from syncmdp import analyze, checks, example_model
from syncmdp.checks import ALL_CHECKS, CheckContext, run_checks
from syncmdp.randgen import corpus


@pytest.fixture(scope="module")
def sample_analyses():
    instances = corpus(1234, 60)
    return [analyze(inst.mdp, inst.initial, inst.target) for inst in instances]


def test_full_battery_zero_failures(sample_analyses):
    for an in sample_analyses:
        for result in run_checks(an):
            assert result.status != "fail", (result.name, result.info)


def test_battery_covers_every_check_name():
    assert set(ALL_CHECKS) == {
        "lasso-integrity", "step-decay-cap", "eventually-isolation",
        "reach-value-cap", "always-prefix-dip", "strongly-prefix-dip",
        "full-sync-count-cap", "near-sync-count-cap", "freezing-lower-bound",
        "positive-definition-sim", "support-monotonicity", "region-dp-agreement",
        "witness-soundness", "certificate-recheck",
    }


def test_twophase_isolation_observed_gap():
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    results = {r.name: r for r in run_checks(an, horizon=50)}
    iso = results["eventually-isolation"]
    assert iso.status == "pass"
    assert iso.info["observed_gap"] == "1/2"


def test_funnel_positive_definition_and_monotonicity():
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    results = {r.name: r for r in run_checks(an)}
    assert results["positive-definition-sim"].status == "pass"
    assert results["support-monotonicity"].status == "pass"


def test_names_filter_restricts_run():
    pm = example_model("drain")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    results = run_checks(an, names={"lasso-integrity"})
    assert [r.name for r in results] == ["lasso-integrity"]


def test_check_context_default_horizon():
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    ctx = CheckContext(an)
    assert ctx.horizon == max(50, 4 * an.switch)


def test_battery_simulates_each_strategy_once_from_the_memo(monkeypatch):
    pm = example_model("loopback")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    played = []
    simulate = checks.simulate

    def spy(m, strategy, d0, h):
        played.append(strategy)
        return simulate(m, strategy, d0, h)
    monkeypatch.setattr(checks, "simulate", spy)
    statuses = {r.name: r.status for r in run_checks(an)}
    assert statuses["freezing-lower-bound"] == statuses["positive-definition-sim"] == "pass"
    labels = [s.label for s in played]
    assert len(labels) == len(set(labels)), labels
    assert played[0] is an.cache[("uniform",)]
    assert played[1] is an.cache[("freezing", an.s0.bits)]
