"""The oracle battery itself: full run over a corpus sample plus targeted
assertions for the checks the other test modules do not already drive.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from syncmdp import analyze, checks, count_synchronized_positions, example_model
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


def ref_sync_count_cap(ctx, threshold, strict):
    """Reference: the first trace over the 2^n cap by the oracle's own count of
    each trace (the simulated ones cut to the horizon), as the cap reports it."""
    a = ctx.analysis
    within = [replace(t, dists=t.dists[:ctx.horizon + 1], horizon=ctx.horizon)
              for t in ctx.traces.values()]
    for trace in [*within, *ctx.enumerated[1]]:
        count, _ = count_synchronized_positions(trace, a.target, threshold, strict=strict)
        if count > 2 ** a.mdp.n:
            return {"strategy": trace.strategy_label, "count": count}
    return None


class _Half:
    value = Fraction(1, 2)


@pytest.mark.parametrize("horizon", [None, 3])
def test_sync_count_caps_count_like_the_oracle(sample_analyses, monkeypatch, horizon):
    # planted "not weakly" verdicts and eps_weakly = 1/2 make both caps count,
    # and fail, on the models that do synchronize; at horizon 3 the simulated
    # traces run past the horizon and the enumerated ones past its cut
    failed = 0
    for an in sample_analyses:
        verdicts = dict(an.verdicts)
        for win in ("sure", "almost-sure"):
            verdicts[("weakly", win)] = replace(verdicts[("weakly", win)], answer=False)
        ctx = CheckContext(replace(an, verdicts=verdicts), horizon=horizon)
        ctx.traces, ctx.enumerated   # simulated before the bound is planted
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_bound", lambda analysis, cell, kind: _Half)
            for name, threshold, strict in (("full-sync-count-cap", 1, False),
                                            ("near-sync-count-cap", Fraction(1, 2), True)):
                result = ALL_CHECKS[name](ctx)
                if result.status == "skip":
                    assert name == "near-sync-count-cap" and an.mdp.n < 2
                    continue
                ref = ref_sync_count_cap(ctx, threshold, strict)
                assert result.status == ("pass" if ref is None else "fail")
                if ref is not None:
                    assert result.info == ref
                    failed += 1
    assert failed
