"""The oracle battery itself: full run over a corpus sample plus targeted
assertions for the checks the other test modules do not already drive.
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from syncmdp import (Dist, analyze, checks, count_synchronized_positions, example_model,
                     simulate, uniform_strategy)
from syncmdp.checks import ALL_CHECKS, CheckContext, run_checks
from syncmdp.randgen import corpus

from conftest import ABSORBING, build

GOLDEN_DIR = Path(__file__).parent / "golden"


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
    within = [t.cut(ctx.horizon) for t in ctx.traces.values()]
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


class _Planted:
    """A stand-in bound certificate."""

    def __init__(self, value):
        self.value = value
        self.log10 = None


def _not_weakly(an, win):
    verdicts = dict(an.verdicts)
    verdicts[("weakly", win)] = replace(verdicts[("weakly", win)], answer=False)
    return replace(an, verdicts=verdicts)


def test_full_sync_count_cap_counts_a_mass_of_exactly_one():
    # the absorbing model keeps all its mass in the target: 51 positions at
    # exactly the non-strict threshold 1, over the cap 2^1
    pm = build(ABSORBING)
    an = _not_weakly(analyze(pm.mdp, pm.initial, pm.targets["target"]), "sure")
    (result,) = run_checks(an, names={"full-sync-count-cap"})
    assert (result.status, result.info) == ("fail", {"strategy": "uniform", "count": 51})


@pytest.mark.parametrize("eps, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + Fraction(1, 10 ** 9), "fail")])
def test_near_sync_count_cap_is_strict_at_the_threshold(monkeypatch, eps, status):
    # twophase holds exactly 1/2 in the target from step 1 on: a mass equal to
    # 1 - eps does not count, one a hair above it does
    pm = example_model("twophase")
    an = _not_weakly(analyze(pm.mdp, pm.initial, pm.targets["target"]), "almost-sure")
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: _Planted(eps))
    (result,) = run_checks(an, names={"near-sync-count-cap"})
    assert result.status == status


@pytest.mark.parametrize("eps, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + Fraction(1, 10 ** 9), "fail")])
def test_freezing_bound_passes_a_mass_of_exactly_eps(monkeypatch, eps, status):
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    planted = {"eps_adversarial": _Planted(eps), "N_adversarial": _Planted(2)}
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: planted.get(kind))
    (result,) = run_checks(an, names={"freezing-lower-bound"})
    assert result.status == status
    if status == "fail":
        assert result.info == {"step": an.switch + 2, "mass": "1/2", "eps": str(eps)}


def _planted_witness(an, mode, certificate):
    """The analysis with a sure `mode` verdict claimed by uniform play."""
    verdicts = dict(an.verdicts)
    witness = replace(uniform_strategy(an.mdp), label="planted")
    verdicts[(mode, "sure")] = replace(verdicts[(mode, "sure")], answer=True,
                                       witness=witness, certificate=certificate)
    return replace(an, verdicts=verdicts)


@pytest.mark.parametrize("mode, certificate", [
    ("weakly", {"kind": "sure-weakly", "k": 0, "r": 1}),
    ("strongly", {"kind": "sure-strongly"}),
])
def test_witness_soundness_reads_past_a_zero_horizon(mode, certificate):
    # prime-cycles starts with all its mass in the target and leaves it at step
    # 1; the claims pin step k + r = 1 (weakly) and step n = 10 (strongly)
    pm = build(json.loads((GOLDEN_DIR / "prime-cycles.model.json").read_text()))
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    planted = _planted_witness(an, mode, certificate)
    (result,) = run_checks(planted, horizon=0, names={"witness-soundness"})
    assert result.status == "fail" and result.info["mode"] == f"sure {mode}"
    (result,) = run_checks(an, horizon=0, names={"witness-soundness"})
    assert result.status == "pass"


def test_battery_builds_no_fraction_dists(monkeypatch):
    # the checks read traces as integers: no step becomes a Dist, and no
    # target mass is summed in Fractions
    analyses = [analyze(inst.mdp, inst.initial, inst.target)
                for inst in corpus(20260810, 20)]
    calls = []
    from_numerators = Dist._from_numerators.__func__
    mass_in = Dist.mass_in
    monkeypatch.setattr(Dist, "_from_numerators", classmethod(
        lambda cls, *args: calls.append("_from_numerators") or from_numerators(cls, *args)))
    monkeypatch.setattr(Dist, "mass_in",
                        lambda d, s: calls.append("mass_in") or mass_in(d, s))
    for an in analyses:
        assert all(r.status != "fail" for r in run_checks(an))
    assert calls == []
    an = analyses[0]
    simulate(an.mdp, uniform_strategy(an.mdp), an.initial, 1).dists[1].mass_in(an.target)
    assert calls == ["_from_numerators", "_from_numerators", "mass_in"]
