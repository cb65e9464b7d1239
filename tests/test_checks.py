"""The oracle battery itself: full run over a corpus sample plus targeted
assertions for the checks the other test modules do not already drive.
"""

import ast
import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (BudgetExceeded, ConsistencyError, GuardExceeded, Lasso, SupportSet,
                     adversarial, analyze, StrategySpec, checks, classic, compute_bound,
                     enumerate_pure_strategies, example_model, regions, uniform_strategy)
from syncmdp.checks import (ALL_CHECKS, CheckContext, _certified, _synced,
                            check_reach_value_cap, check_region_dp, run_checks)
from syncmdp.model import rational_obj
from syncmdp.oracle import _clears
from syncmdp.randgen import corpus

from conftest import (ABSORBING, build, prime_cycles, run_named, synchronized_positions,
                      target_masses, wide_instances)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sample_analyses():
    instances = corpus(1234, 60)
    return [analyze(inst.mdp, inst.initial, inst.target) for inst in instances]


def test_full_battery_zero_failures(sample_analyses):
    for an in sample_analyses:
        for result in run_checks(an):
            assert result.status != "fail", (result.name, result.info)


@pytest.mark.parametrize("seed", [20261301, 20261302, 20261303])
@pytest.mark.parametrize("tier", [{}, {"max_states": 8, "max_actions": 3,
                                       "max_denominator": 8}])
def test_fresh_seeds_zero_failures(seed, tier):
    # seeds fixed before their first run: the battery at its default horizon
    # must find nothing to report on a correct engine
    for index, inst in enumerate(corpus(seed, 20, **tier)):
        an = analyze(inst.mdp, inst.initial, inst.target)
        for result in run_checks(an):
            assert result.status != "fail", (index, result.name, result.info)


@pytest.mark.parametrize("seed, count, index, horizon, names", [
    # slow winners: they reach the target almost surely, but slowly
    (42, 60, 15, 50, {"region-dp-agreement"}),
    (48, 60, 7, 50, {"region-dp-agreement"}),
    (64, 60, 17, 50, {"region-dp-agreement"}),
    (90, 60, 19, 50, {"region-dp-agreement"}),
    (1, 60, 42, 50, {"region-dp-agreement"}),
    # the per-step optimum does not dip within n steps; every strategy does
    (20260811, 255, 254, None, {"always-prefix-dip", "strongly-prefix-dip"}),
])
def test_no_false_failure_on_a_correct_engine(seed, count, index, horizon, names):
    inst = corpus(seed, count)[index]
    an = analyze(inst.mdp, inst.initial, inst.target)
    results = run_named(an, horizon=horizon, names=names)
    assert [(r.name, r.status) for r in results] == [(name, "pass") for name in
                                                     ALL_CHECKS if name in names]


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


def test_checks_imports_of_the_deciders_only_their_strategies_and_limit_sure():
    # the battery verifies the deciders with its own code: of adversarial it reads
    # only the memoized uniform and freezing strategies, of classic only the
    # limit-sure certificates it proves in turn
    imported = {}
    for node in ast.walk(ast.parse(Path(checks.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            module = node.module.removeprefix("syncmdp.")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):   # whole modules
            for alias in node.names:
                imported.setdefault(alias.name.removeprefix("syncmdp."), set()).add("*")
    assert imported.get("adversarial") == {"_freezing", "_uniform"}
    assert imported.get("classic") == {"decide_limit_sure"}


def test_check_context_default_horizon():
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    ctx = CheckContext(an)
    assert ctx.horizon == max(50, 4 * an.switch)


def test_check_context_default_horizon_is_clamped():
    # cycles of lengths 2..13: the support lasso closes after 30,030 steps, so
    # 4 * switch = 120,120 is clamped to the bound `verify --horizon` has
    pm = build(prime_cycles())
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    assert an.switch == 30030
    assert CheckContext(an).horizon == checks.MAX_HORIZON == 10_000


def _spy_simulate(monkeypatch):
    """The strategies `checks.simulate` is called with, in call order."""
    played = []
    simulate = checks.simulate

    def spy(m, strategy, d0, h):
        played.append(strategy)
        return simulate(m, strategy, d0, h)
    monkeypatch.setattr(checks, "simulate", spy)
    return played


def test_battery_simulates_each_distinct_play_once_from_the_memo(monkeypatch):
    # loopback: every action stays in an end component, so freezing plays
    # uniform's row and one simulation serves both labels
    pm = example_model("loopback")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    played = _spy_simulate(monkeypatch)
    statuses = {r.name: r.status for r in run_checks(an)}
    assert statuses["freezing-lower-bound"] == statuses["positive-definition-sim"] == "pass"
    assert len(played) == 1 and played[0] is an.cache[("uniform",)]
    # funnel: an action leaves an end component, so freezing is a play of its own
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    played = _spy_simulate(monkeypatch)
    assert all(r.status != "fail" for r in run_checks(an))
    assert len(played) == 2
    assert played[0] is an.cache[("uniform",)]
    assert played[1] is an.cache[("freezing", an.s0.bits)]


def ref_traces(ctx):
    """Reference: each strategy the battery reads simulated on its own, to its
    own window, in label order (uniform, freezing, the witnesses)."""
    an = ctx.analysis
    m = an.mdp
    strategies = {"uniform": checks._uniform(m, an.cache),
                  "freezing": checks._freezing(m, an.s0, an.lasso, an.mec, an.cache)}
    for verdict in an.verdicts.values():
        if verdict.witness is not None:
            strategies.setdefault(verdict.witness.label, verdict.witness)
    windows = {"uniform": an.switch + an.lasso.period}
    nsteps = checks._bound(an, ("strongly", "bounded"), "N_adversarial")
    if nsteps is not None:
        windows["freezing"] = an.switch + 3 * nsteps.value
    for _, label, steps in ctx.claims:
        windows[label] = max(windows.get(label, 0), steps[-1])
    return {label: checks.simulate(m, s, an.initial, max(ctx.horizon, windows.get(label, 0)))
            for label, s in strategies.items()}


def _assert_traces_as_simulated(ctx):
    expected = ref_traces(ctx)
    assert list(ctx.traces) == list(expected)
    for label, ref in expected.items():
        trace = ctx.traces[label]
        assert trace.nums == ref.nums, label
        assert trace.totals == ref.totals, label
        assert (trace.strategy_label, trace.horizon) == (ref.strategy_label, ref.horizon)


def test_shared_plays_give_each_label_its_own_simulation(sample_analyses):
    fresh = [analyze(inst.mdp, inst.initial, inst.target) for inst in corpus(20261019, 30)]
    merged = 0
    for an in [*sample_analyses, *fresh]:
        ctx = CheckContext(an)
        _assert_traces_as_simulated(ctx)
        merged += len({id(t.nums[0]) for t in ctx.traces.values()}) < len(ctx.traces)
    assert merged > len(sample_analyses) // 2   # most models share a play


def _after_switch(an):
    """Uniform play, then action a at every state from the switch on."""
    m, sw = an.mdp, an.switch
    return StrategySpec("freezing", tuple(range(sw + 1)), sw,
                        ({},) * sw + ({q: {0: Fraction(1)} for q in range(m.n)},),
                        uniform_strategy(m).default)


def _unplayed_default(an):
    """Uniform's row forced at every state, beside a default row it never plays."""
    m = an.mdp
    row = uniform_strategy(m).default
    return StrategySpec("freezing", (0,), 0, ({q: dict(row) for q in range(m.n)},),
                        {0: Fraction(1, 3), 1: Fraction(2, 3)})


def _masses(trace):
    return [{q: Fraction(v, total) for q, v in nums.items()}
            for nums, total in zip(trace.nums, trace.totals)]


@pytest.mark.parametrize("plant", [_after_switch, _unplayed_default])
def test_plays_that_differ_are_not_merged(monkeypatch, plant):
    # loopback's freezing shares uniform's play; a planted freezing that leaves
    # q1 only by a from the switch on (the same steps to the switch), or that
    # has a default row of denominator 3 (the same masses over other totals),
    # is its own play
    pm = example_model("loopback")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    planted = plant(an)
    monkeypatch.setattr(checks, "_freezing", lambda *args: planted)
    ctx = CheckContext(an)
    assert ctx.traces["freezing"] is not ctx.traces["uniform"]
    _assert_traces_as_simulated(ctx)
    uni, frz = (_masses(ctx.traces[label]) for label in ("uniform", "freezing"))
    assert uni[:an.switch + 1] == frz[:an.switch + 1]
    assert ctx.traces["uniform"].totals != ctx.traces["freezing"].totals or uni != frz


def test_play_key_reads_rows_by_value_without_zeros():
    half = Fraction(1, 2)

    def key(default, forced=None):
        return checks._play_key(StrategySpec("s", (0,), 0, (forced or {},), default))
    assert key({0: half, 2: half}) == key({0: half, 1: Fraction(0), 2: half},
                                          {1: {0: half, 2: half}})
    assert key({0: half, 2: half}, {1: {0: Fraction(1)}}) == "s"


def ref_sync_count_cap(ctx, threshold, strict):
    """Reference: the first trace over the 2^n cap by a `Fraction` count of each
    trace (the simulated ones cut to the horizon or to step n, the later), as the
    cap reports it."""
    a = ctx.analysis
    within = [t.cut(max(ctx.horizon, a.mdp.n)) for t in ctx.traces.values()]
    for trace in [*within, *ctx.enumerated[1]]:
        count = len(synchronized_positions(trace, a.target, threshold, strict=strict))
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
                status, info = ALL_CHECKS[name](ctx)
                ref = ref_sync_count_cap(ctx, threshold, strict)
                if status == "skip":
                    # eps_weakly is undefined for n = 1; no trace past 2^n steps can fail
                    short = all(len(t.nums) <= 2 ** an.mdp.n
                                for t in [*ctx.count_traces[0], *ctx.enumerated[1]])
                    assert (name == "near-sync-count-cap" and an.mdp.n < 2
                            or short and "2^n" in info["reason"])
                    continue
                assert status == ("pass" if ref is None else "fail")
                if ref is not None:
                    assert info == ref
                    failed += 1
    assert failed


# q0 -> q1 -> ... -> q5 -> q5, target {q0}: weakly fails, and at the default
# horizon 50 no trace has more than 2^6 = 64 steps
CHAIN6 = {
    "states": [f"q{i}" for i in range(6)], "actions": ["a"],
    "transitions": [{"from": f"q{i}", "action": "a", "to": f"q{min(i + 1, 5)}", "prob": "1"}
                    for i in range(6)],
    "initial": {"q0": "1"},
    "targets": {"target": ["q0"]},
}


@pytest.mark.parametrize("horizon, status", [(None, "skip"), (64, "pass")])
def test_sync_count_caps_skip_when_no_trace_is_past_2_to_the_n(horizon, status):
    pm = build(CHAIN6)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    results = run_named(an, names={"full-sync-count-cap", "near-sync-count-cap"},
                        horizon=horizon)
    assert [r.status for r in results] == [status, status]
    if status == "skip":
        assert {r.info["reason"] for r in results} == {
            "no trace has more than 2^n = 64 steps at horizon 50"}


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
    (result,) = run_named(an, names={"full-sync-count-cap"})
    assert (result.status, result.info) == ("fail", {"strategy": "uniform", "count": 51})


@pytest.mark.parametrize("eps, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + Fraction(1, 10 ** 9), "fail")])
def test_near_sync_count_cap_is_strict_at_the_threshold(monkeypatch, eps, status):
    # twophase holds exactly 1/2 in the target from step 1 on: a mass equal to
    # 1 - eps does not count, one a hair above it does
    pm = example_model("twophase")
    an = _not_weakly(analyze(pm.mdp, pm.initial, pm.targets["target"]), "almost-sure")
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: _Planted(eps))
    (result,) = run_named(an, names={"near-sync-count-cap"})
    assert result.status == status


def test_synced_steps_at_the_one_unit_boundary(sample_analyses):
    # eps * total exactly 1, one unit below and one unit above: a step one unit
    # short of full mass sits right at 1 - eps, and the integer test must count
    # what cross-multiplying every mass counts
    masses = {}
    for an in sample_analyses[:20]:
        masses.update(CheckContext(an).count_traces[1])
    totals = sorted({total for _, total in masses.values()})
    unit = 10 ** 6
    for total in (2, 3, totals[len(totals) // 2], totals[-1]):
        planted = {("planted", t, v): (v, t) for t in (total - 1, total, total + 1, 2 * total)
                   for v in (0, t - 2, t - 1, t) if v >= 0}
        steps = {**masses, **planted}
        for d in (-1, 0, 1):
            eps = Fraction(unit + d, unit * total)
            expected = {key for key, (v, t) in steps.items() if _clears(v, t, 1 - eps)}
            assert _synced(steps, eps) == expected, (total, d)
            assert (("planted", total, total - 1) in expected) == (d == 1)
        assert _synced(steps) == {key for key, (v, t) in steps.items()
                                  if _clears(v, t, 1, strict=False)}


# all mass stays in the target t at every step
TWO_SINKS = {
    "states": ["t", "x"],
    "actions": ["a"],
    "transitions": [{"from": "t", "action": "a", "to": "t", "prob": "1"},
                    {"from": "x", "action": "a", "to": "x", "prob": "1"}],
    "initial": {"t": "1"},
    "targets": {"target": ["t"]},
}


def test_near_sync_count_cap_counts_full_mass_under_a_tiny_eps(monkeypatch):
    # eps * total <= 1 on every step, so each step is decided by v == total:
    # the 51 fully synchronized positions are over the cap 2^2
    pm = build(TWO_SINKS)
    an = _not_weakly(analyze(pm.mdp, pm.initial, pm.targets["target"]), "almost-sure")
    monkeypatch.setattr(checks, "_bound",
                        lambda analysis, cell, kind: _Planted(Fraction(1, 2 ** 4000)))
    (result,) = run_named(an, names={"near-sync-count-cap"})
    assert (result.status, result.info) == ("fail", {"strategy": "uniform", "count": 51})


@pytest.mark.parametrize("eps, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + Fraction(1, 10 ** 9), "fail")])
def test_freezing_bound_passes_a_mass_of_exactly_eps(monkeypatch, eps, status):
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    planted = {"eps_adversarial": _Planted(eps), "N_adversarial": _Planted(2)}
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: planted.get(kind))
    (result,) = run_named(an, names={"freezing-lower-bound"})
    assert result.status == status
    if status == "fail":
        assert result.info == {"step": an.switch + 2, "mass": "1/2", "eps": str(eps)}


# twophase holds exactly 1/2 in the target from step 1 on: each profile cap
# passes a mass of exactly 1 - cap, and fails one a hair above it
HAIR = Fraction(1, 10 ** 9)


@pytest.mark.parametrize("alpha, status", [(Fraction(1, 2), "pass"),
                                           (Fraction(1, 2) + HAIR, "fail")])
def test_step_decay_cap_passes_a_mass_of_exactly_its_cap(alpha, status):
    # alpha0 = 1: the cap 1 - alpha0 * alpha^i is 1/2 at step 1 for alpha = 1/2
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    (result,) = run_named(replace(an, alpha=alpha), names={"step-decay-cap"})
    assert (result.status, result.info) == (status, {
        "pass": {"horizon": 50, "min_slack": "0"},
        "fail": {"step": 1, "value": "1/2"}}[status])


@pytest.mark.parametrize("eps, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + HAIR, "fail")])
def test_eventually_isolation_passes_a_mass_of_exactly_its_cap(monkeypatch, eps, status):
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: _Planted(eps))
    (result,) = run_named(an, names={"eventually-isolation"})
    assert (result.status, result.info) == (status, {
        "pass": {"eps_log10": None, "observed_gap": "1/2"},
        "fail": {"step": 1, "value": "1/2", "eps": str(eps)}}[status])


@pytest.mark.parametrize("name", ["always-prefix-dip", "strongly-prefix-dip"])
def test_prefix_dips_read_n_plus_one_steps_at_any_horizon(monkeypatch, name):
    # drain (n = 2) holds 2^-i in its target at step i: a planted eps = 1 puts
    # every step above 1 - eps, so each dip fails on steps 0..n even at horizon 0
    pm = example_model("drain")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    monkeypatch.setattr(checks, "_bound", lambda analysis, cell, kind: _Planted(1))
    (result,) = run_named(an, names={name}, horizon=0, enum_depth=0)
    assert (result.status, result.info["prefix"]) == ("fail", ["1", "1/2", "1/4"])


@pytest.mark.parametrize("cap, status", [(Fraction(1, 2), "pass"),
                                         (Fraction(1, 2) + HAIR, "fail")])
def test_reach_value_cap_passes_a_mass_of_exactly_its_cap(monkeypatch, cap, status):
    # the planted region is the target alone, so the initial support lies outside it
    pm = example_model("twophase")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    ctx = CheckContext(an)
    ctx.reach_region = an.target
    monkeypatch.setattr(checks, "compute_bound", lambda *args: _Planted(cap))
    assert check_reach_value_cap(ctx) == (status, {
        "pass": {"cap": "1/2", "observed_gap": "1/2"},
        "fail": {"step": 1, "value": "1/2"}}[status])


def ref_enumerated(ctx):
    """Reference: the deepest horizon the budget admits by a linear search down
    from the enumeration depth, with its traces."""
    a = ctx.analysis
    if a.mdp.n <= 4:
        for h in range(ctx.enum_depth, -1, -1):
            try:
                return h, list(enumerate_pure_strategies(a.mdp, a.initial, h,
                                                         budget=ctx.budget))
            except BudgetExceeded:
                pass
    return None, []


def test_enumeration_depth_matches_the_linear_search(sample_analyses):
    for an in sample_analyses:
        ctx = CheckContext(an)
        assert ctx.enumerated == ref_enumerated(ctx)


@pytest.mark.parametrize("name", ["drain", "funnel", "twophase"])
def test_enumeration_depth_walks_the_node_counts(name):
    # depth 120 lies past the deepest horizon the default budget admits on each
    # model (drain 99, funnel 2; twophase has n = 5 and is not enumerated), so
    # the linear search from there finds what any deeper bound must; the node
    # counts stop at the first horizon over the budget, so a huge bound is cheap
    pm = example_model(name)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    for depth, budget in ((0, 5000), (1, 5000), (6, 5000), (6, 0), (6, 40)):
        ctx = CheckContext(an, budget=budget, enum_depth=depth)
        assert ctx.enumerated == ref_enumerated(ctx)
    expected = ref_enumerated(CheckContext(an, enum_depth=120))
    start = time.perf_counter()
    found = CheckContext(an, enum_depth=10 ** 9).enumerated
    assert time.perf_counter() - start < 1
    assert found == expected
    assert found[0] == {"drain": 99, "funnel": 2, "twophase": None}[name]


@given(wide_instances(max_states=5), st.integers(0, 400), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_enumeration_depth_is_the_linear_search_enumerated_once(inst, budget, enum_depth):
    # n <= 4 is enumerated at the depth the linear search finds, by one call to
    # the enumeration; n = 5 and a budget admitting no depth make none
    m, d0, t = inst
    try:
        an = analyze(m, d0, t)
    except GuardExceeded:
        return
    ctx = CheckContext(an, budget=budget, enum_depth=enum_depth)
    with mock.patch.object(checks, "enumerate_pure_strategies",
                           wraps=enumerate_pure_strategies) as spy:
        found = ctx.enumerated
        assert ctx.enumerated is found
    assert found == ref_enumerated(ctx)
    assert spy.call_count == (found[0] is not None)
    if m.n > 4:
        assert found == (None, []) and spy.call_count == 0


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
    (result,) = run_named(planted, horizon=0, names={"witness-soundness"})
    assert result.status == "fail" and result.info["mode"] == f"sure {mode}"
    (result,) = run_named(an, horizon=0, names={"witness-soundness"})
    assert result.status == "pass"


# sure always holds (play a forever), and any other action drops into the sink x
STAY = {
    "states": ["q0", "q1", "x"],
    "actions": ["a", "b"],
    "transitions": [
        {"from": "q0", "action": "a", "to": "q1", "prob": "1"},
        {"from": "q0", "action": "b", "to": "x", "prob": "1"},
        {"from": "q1", "action": "a", "to": "q0", "prob": "1"},
        {"from": "q1", "action": "b", "to": "x", "prob": "1"},
        {"from": "x", "action": "a", "to": "x", "prob": "1"},
        {"from": "x", "action": "b", "to": "x", "prob": "1"},
    ],
    "initial": {"q0": "1"},
    "targets": {"goal": ["q0", "q1"]},
}


def test_always_prefix_dip_catches_a_wrong_no():
    # a planted "no" for sure always, with its eps_always certificate and no
    # witness to betray it: uniform and freezing play dip at step 1, so the
    # strategy that keeps all mass in the target is found by the enumeration
    pm = build(STAY)
    an = analyze(pm.mdp, pm.initial, pm.targets["goal"])
    assert an.answer("always", "sure")
    verdicts = {cell: replace(v, witness=None) for cell, v in an.verdicts.items()}
    verdicts[("always", "sure")] = replace(verdicts[("always", "sure")], answer=False)
    eps = compute_bound("eps_always", an.mdp.n, an.mdp.action_count, an.alpha, an.alpha0)
    bounds = {**an.bounds, ("always", "sure"): [eps]}
    planted = replace(an, verdicts=verdicts, bounds=bounds)
    (result,) = run_named(planted, names={"always-prefix-dip"})
    assert (result.status, result.info) == ("fail", {
        "eps": "1/3", "strategy": "pure[0,0,0,0,0,0,0]", "prefix": ["1", "1", "1", "1"]})


DIPS = {"always-prefix-dip": ("always", "sure", "eps_always"),
        "strongly-prefix-dip": ("strongly", "almost-sure", "eps_strongly")}


def ref_prefix_dip(mode, win, kind, ctx):
    """Reference: the full scan of a prefix dip, each simulated trace (cut to the
    horizon or to step n, the later) and then every pure strategy enumerated to
    the full depth, the first whose `Fraction` masses at steps 0..n all exceed
    1 - eps."""
    a = ctx.analysis
    if a.answer(mode, win):
        return "skip", {"reason": f"{win} {mode} holds"}
    cert = checks._bound(a, (mode, win), kind)
    if cert is None or cert.value is None:
        return "skip", {"reason": "no exact bound"}
    n = a.mdp.n
    within = [t.cut(max(ctx.horizon, n)) for t in ctx.traces.values()]
    for trace in [*within, *ctx.enumerated[1]]:
        prefix = target_masses(trace, a.target)[:n + 1]
        if len(prefix) > n and all(mass > 1 - cert.value for mass in prefix):
            return "fail", {"eps": rational_obj(cert.value), "strategy": trace.strategy_label,
                            "prefix": [rational_obj(mass) for mass in prefix]}
    return "pass", {"eps": rational_obj(cert.value)}


def _dips_and_the_full_scan(an, eps, **context):
    """(result, reference, context) of each prefix dip with planted "no" answers,
    eps planted as both dips' bound and no witness, so that only uniform and
    freezing play are simulated and a strategy that does not dip is left to the
    pure-strategy search."""
    verdicts = {cell: replace(v, witness=None) for cell, v in an.verdicts.items()}
    for mode, win, _ in DIPS.values():
        verdicts[(mode, win)] = replace(verdicts[(mode, win)], answer=False)
    planted = replace(an, verdicts=verdicts)

    def bound(analysis, cell, kind):
        return _Planted(eps) if kind in ("eps_always", "eps_strongly") else real(analysis,
                                                                                 cell, kind)
    real = checks._bound
    out = []
    with mock.patch.object(checks, "_bound", bound):
        for name, args in DIPS.items():
            ctx = CheckContext(planted, **context)
            out.append((ALL_CHECKS[name](ctx), ref_prefix_dip(*args, ctx), ctx))
    return out


EPS = [Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(1, 1000)]


@given(wide_instances(max_states=4, max_support=3), st.sampled_from(EPS), st.integers(0, 6),
       st.sampled_from([None, 0, 2]))
@settings(max_examples=60, deadline=None)
def test_prefix_dips_search_like_the_full_scan(inst, eps, enum_depth, horizon):
    m, d0, t = inst
    try:
        an = analyze(m, d0, t)
    except GuardExceeded:
        return
    for found, ref, _ in _dips_and_the_full_scan(an, eps, enum_depth=enum_depth,
                                                 horizon=horizon):
        assert found == ref


def test_prefix_dips_search_like_the_full_scan_on_the_corpus():
    # at horizon 0 the simulated traces hold steps 0..n only
    statuses = set()
    for inst in corpus(20260810, 150):
        if inst.mdp.n <= 4:
            an = analyze(inst.mdp, inst.initial, inst.target)
            for eps in EPS[:3]:
                for found, ref, _ in _dips_and_the_full_scan(an, eps, horizon=0):
                    assert found == ref
                    statuses.add(found[0])
    assert statuses == {"pass", "fail"}


# q stays in the target under b and leaves for good under a: the strategy
# that never dips picks b at every node its mass reaches
KEEP = {
    "states": ["q", "x"], "actions": ["a", "b"],
    "transitions": [{"from": "q", "action": "a", "to": "x", "prob": "1"},
                    {"from": "q", "action": "b", "to": "q", "prob": "1"},
                    {"from": "x", "action": "a", "to": "x", "prob": "1"},
                    {"from": "x", "action": "b", "to": "x", "prob": "1"}],
    "initial": {"q": "1"},
    "targets": {"target": ["q"]},
}


@pytest.mark.parametrize("horizon", [None, 0])
def test_prefix_dips_pad_the_strategy_found_at_depth_n(horizon):
    # n = 2 and the enumeration depth is 3 (nodes 1, 3, 7): the search at depth
    # 2 finds b, a, b at its 3 nodes, and the 4 nodes of depth 2 read 0
    pm = build(KEEP)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    for found, ref, ctx in _dips_and_the_full_scan(an, Fraction(1, 2), horizon=horizon):
        assert ctx.tree_sizes == [0, 1, 3, 7]
        assert found == ref == ("fail", {"eps": "1/2", "strategy": "pure[1,0,1,0,0,0,0]",
                                         "prefix": ["1", "1", "1"]})


def test_battery_enumerates_in_full_only_for_a_cap_past_2_to_the_n():
    # the dips search to depth n, pruned; the full enumeration runs once, where
    # its depth + 1 steps pass the 2^n cap and a cap gets past its skips to count
    full = 0
    for inst in corpus(20260810, 150):
        an = analyze(inst.mdp, inst.initial, inst.target)
        with mock.patch.object(checks, "enumerate_pure_strategies",
                               wraps=enumerate_pure_strategies) as spy:
            results = {r.name: r.status for r in run_checks(an)}
        depth, n = CheckContext(an).enumeration_depth, an.mdp.n
        counting = {results["full-sync-count-cap"], results["near-sync-count-cap"]} != {"skip"}
        calls = [c for c in spy.call_args_list if c.kwargs.get("keep") is None]
        assert len(calls) == (depth is not None and depth + 1 > 2 ** n and counting)
        assert all(c.args[2] == depth for c in calls)
        for c in spy.call_args_list:
            if c.kwargs.get("keep") is not None:
                assert c.args[2] == n <= depth
        full += len(calls)
    assert full == 23


# q0 leaves for the absorbing target q1 with probability 1/1000 per step: it
# reaches q1 almost surely, but within 200 steps only with probability ~0.18
SLOW = {
    "states": ["q0", "q1"],
    "actions": ["a"],
    "transitions": [
        {"from": "q0", "action": "a", "to": "q0", "prob": "999/1000"},
        {"from": "q0", "action": "a", "to": "q1", "prob": "1/1000"},
        {"from": "q1", "action": "a", "to": "q1", "prob": "1"},
    ],
    "initial": {"q0": "1"},
    "targets": {"goal": ["q1"]},
}


def test_region_dp_agreement_catches_a_slow_winner_left_out():
    pm = build(SLOW)
    an = analyze(pm.mdp, pm.initial, pm.targets["goal"])
    ctx = CheckContext(an)
    assert ctx.reach_region == SupportSet(2, 0b11)
    assert check_region_dp(ctx) == ("pass", {"layers": 0, "region": ["q0", "q1"]})
    ctx.reach_region = pm.targets["goal"]   # the planted region leaves q0 out
    assert check_region_dp(ctx) == ("fail", {
        "state": "q0", "reason": "losing state not certified"})


@pytest.mark.parametrize("name", ["drain", "funnel", "loopback", "twophase"])
def test_lasso_integrity_steps_the_predecessor_lasso_by_pre(name):
    # a planted predecessor lasso of full supports repeats its period, but it
    # neither starts at the target nor steps by Pre
    pm = example_model(name)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    tl = an.target_lasso
    n = an.mdp.n
    full = Lasso((SupportSet(n, (1 << n) - 1),) * len(tl.supports), tl.start, tl.period)
    (result,) = run_named(replace(an, target_lasso=full), names={"lasso-integrity"})
    assert result.status == "fail"
    (result,) = run_named(an, names={"lasso-integrity"})
    assert result.status == "pass"


def test_each_step_target_mass_is_summed_once(monkeypatch):
    # LEAK runs freezing-lower-bound, positive-definition-sim, witness-soundness
    # (on one sure claim) and both prefix dips; at an enumeration depth below n
    # the dips do not search the pure strategies (which sums each step it
    # builds), so every target sum is of a step of the simulated traces
    pm = build(LEAK)
    an = analyze(pm.mdp, pm.initial, pm.targets["goal"])
    ctx = CheckContext(an, enum_depth=an.mdp.n - 1)
    assert ctx.claims
    distinct = {id(nums) for trace in ctx.traces.values() for nums in trace.nums}
    summed = []
    numerator_in = checks._numerator_in
    monkeypatch.setattr(checks, "_numerator_in",
                        lambda t, nums: summed.append(nums) or numerator_in(t, nums))
    results = {r.name: r.status for r in run_checks(an, enum_depth=an.mdp.n - 1)}
    watched = ("always-prefix-dip", "strongly-prefix-dip", "freezing-lower-bound",
               "positive-definition-sim", "witness-soundness")
    assert [results[name] for name in watched] == ["pass"] * len(watched)
    assert len(summed) == len({id(nums) for nums in summed}) == len(distinct) == 51


# q0 splits its mass between the absorbing t and the absorbing sink x: {t} is the
# safety region of the target {q0, t}, and q0 reaches t with probability 1/2 only
LEAK = {
    "states": ["q0", "t", "x"],
    "actions": ["a"],
    "transitions": [
        {"from": "q0", "action": "a", "to": "t", "prob": "1/2"},
        {"from": "q0", "action": "a", "to": "x", "prob": "1/2"},
        {"from": "t", "action": "a", "to": "t", "prob": "1"},
        {"from": "x", "action": "a", "to": "x", "prob": "1"},
    ],
    "initial": {"q0": "1"},
    "targets": {"goal": ["q0", "t"]},
}


def _safety_one_round(m, t):
    """`sure_safety_region` cut to one round: t & Pre(all states), which is t."""
    return SupportSet(m.n, t.bits & regions._apre(m.succ, (1 << m.n) - 1))


def _as_reach_outer_once(m, t, r=1):
    """`almost_sure_reach_region` with its outer loop run once: the states of
    M x [r] that reach t x {0} with positive probability."""
    goal, full = [(t.bits >> q & 1) << r - 1 for q in range(m.n)], [(1 << r) - 1] * m.n
    x = [0] * m.n
    while (nxt := [g | b for g, b in zip(goal, regions._counter_apre(m, full, x, r))]) != x:
        x = nxt
    return SupportSet(m.n * r, sum(b << q * r for q, b in enumerate(x)))


@pytest.mark.parametrize("primitive, mutant, cell", [
    ("sure_safety_region", _safety_one_round, {"mode": "always", "win": "sure"}),
    ("almost_sure_reach_region", _as_reach_outer_once, {"mode": "weakly", "win": "almost-sure"}),
])
def test_certificate_recheck_catches_a_region_primitive_mutant(monkeypatch, primitive, mutant,
                                                               cell):
    # the deciders answer yes from an over-approximated region; the masks prove
    # each certificate without the primitive, so they do not share its bug
    pm = build(LEAK)
    (result,) = run_named(analyze(pm.mdp, pm.initial, pm.targets["goal"]),
                           names={"certificate-recheck"})
    assert result.status == "pass"
    monkeypatch.setattr(classic, primitive, mutant)
    (result,) = run_named(analyze(pm.mdp, pm.initial, pm.targets["goal"]),
                           names={"certificate-recheck"})
    assert (result.status, result.info) == ("fail", cell)


# q0 splits its mass between q1 and the absorbing sink x; q1 steps to q2, where a
# returns to q1 and b moves on to y, and y drains into x. The pre-lasso of the
# target {y} runs {y}, {q2}, {q1}, {q2}: R = {q2} recurs with period 2, and q0
# reaches {q2} x {0} with probability 1/2 only
CYCLE_LEAK = {
    "states": ["q0", "q1", "q2", "y", "x"],
    "actions": ["a", "b"],
    "transitions": [
        *({"from": "q0", "action": a, "to": q, "prob": "1/2"} for a in "ab" for q in ("q1", "x")),
        *({"from": "q1", "action": a, "to": "q2", "prob": "1"} for a in "ab"),
        {"from": "q2", "action": "a", "to": "q1", "prob": "1"},
        {"from": "q2", "action": "b", "to": "y", "prob": "1"},
        *({"from": q, "action": a, "to": "x", "prob": "1"} for a in "ab" for q in ("y", "x")),
    ],
    "initial": {"q0": "1"},
    "targets": {"target": ["y"]},
}


def _product_outer_once(m, t, r=1):
    """`almost_sure_reach_region` with its outer loop run once on M x [r], r > 1, only."""
    return (_as_reach_outer_once if r > 1 else regions.almost_sure_reach_region)(m, t, r)


def test_certificate_recheck_catches_a_product_region_mutant(monkeypatch):
    # with the outer loop run once, <q0, 0> joins the region of M x [2] (it reaches
    # {q2} x {0} with probability 1/2), and limit-sure eventually alone turns yes, at
    # phase 0; no product table is left to compare with, so the battery's own
    # counter-mask step must reject the region
    pm = build(CYCLE_LEAK)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    assert not an.verdicts[("eventually", "limit-sure")].answer
    (result,) = run_named(an, names={"certificate-recheck"})
    assert result.status == "pass"
    monkeypatch.setattr(classic, "almost_sure_reach_region", _product_outer_once)
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    cert = an.verdicts[("eventually", "limit-sure")].certificate
    assert (cert["via"], cert["r"], cert["phase"]) == ("product", 2, 0)
    (result,) = run_named(an, names={"certificate-recheck"})
    assert (result.status, result.info) == ("fail", {"mode": "eventually", "win": "limit-sure"})


def test_certificate_recheck_rejects_a_product_region_with_an_extra_state():
    # the almost-sure region of the counter product is the largest that passes,
    # so adding any state to it must fail
    pm = example_model("funnel")
    m, t, s0 = pm.mdp, pm.targets["target"], pm.initial.support()
    cert = classic.decide_limit_sure(m, "eventually", t, s0).certificate
    assert cert["via"] == "product" and _certified(m, t, s0, cert, {}, {})
    region = cert["product_region"]
    outside = [q for q in range(region.width) if q not in region]
    assert outside
    for q in outside:
        planted = {**cert, "product_region": region | SupportSet.of(region.width, [q])}
        assert not _certified(m, t, s0, planted, {}, {}), q


def _drop_highest(post):
    """A mutant of the deciders' mask support step: a support of at least two
    states steps to its image without the image's highest state."""
    def step(m, bits):
        image = post(m, bits)
        if bits.bit_count() < 2:
            return image
        return image & ~(1 << image.bit_length() - 1)
    return step


def test_lasso_integrity_catches_a_support_step_mutant(monkeypatch):
    # the battery steps the lasso with its own Post, so a bug inside the deciders'
    # step fails it on every model whose lasso the bug changes (113 here; the
    # consistency gate rejects 10 more first), not only where other checks notice
    instances = corpus(20260810, 150)
    lassos = [adversarial.support_lasso(inst.mdp, inst.initial.support()) for inst in instances]
    monkeypatch.setattr(adversarial, "_post", _drop_highest(adversarial._post))
    changed = caught = 0
    for inst, lasso in zip(instances, lassos):
        try:
            an = analyze(inst.mdp, inst.initial, inst.target)
        except ConsistencyError:
            continue
        if an.lasso != lasso:
            changed += 1
            (result,) = run_named(an, {"lasso-integrity"})
            caught += result.status == "fail"
    assert caught == changed == 113


@pytest.fixture(scope="module")
def long_lasso():
    # cycles of lengths 2..13 with mass on the cycle starts: the support lasso
    # and the predecessor lasso both close after l + p = 30,030 steps
    pm = build(prime_cycles())
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    assert (an.lasso.start, an.lasso.period) == (0, 30030)
    return an


def test_lasso_integrity_makes_logarithmically_many_matrix_products(long_lasso, monkeypatch):
    calls = []
    bool_mul = checks._bool_mul
    monkeypatch.setattr(checks, "_bool_mul", lambda a, b: calls.append(1) or bool_mul(a, b))
    (result,) = run_named(long_lasso, names={"lasso-integrity"})
    assert result.status == "pass"
    lasso = long_lasso.lasso
    assert 0 < len(calls) <= math.log2(lasso.start + lasso.period)


def test_certificate_recheck_reads_each_pre_chain_once(long_lasso, monkeypatch):
    # the parent re-walked Pre^k(y) from y for every read: 240,238 Pre steps here
    longest, pre_calls = {}, []
    pre, pre_power = checks._pre, checks._pre_power

    def read(m, y, k, chains):
        longest[y] = max(longest.get(y, 0), k)
        return pre_power(m, y, k, chains)
    monkeypatch.setattr(checks, "_pre", lambda m, y: pre_calls.append(y) or pre(m, y))
    monkeypatch.setattr(checks, "_pre_power", read)
    (result,) = run_named(long_lasso, names={"certificate-recheck"})
    assert result.status == "pass"
    assert max(longest.values()) == 30030
    # beyond the chains, one Pre per trap and per almost-sure weakly condition
    yes = sum(v.answer for (_, win), v in long_lasso.verdicts.items()
              if win in ("sure", "almost-sure", "limit-sure"))
    assert sum(longest.values()) <= len(pre_calls) <= sum(longest.values()) + 2 * yes


def test_battery_walks_the_predecessor_chain_once(long_lasso, monkeypatch):
    # lasso-integrity and certificate-recheck read Pre^i(T) off one chain of
    # the context, so the battery walks T's 30,030-step chain once
    pre_calls = []
    pre = checks._pre
    monkeypatch.setattr(checks, "_pre", lambda m, y: pre_calls.append(y) or pre(m, y))
    ctx = CheckContext(long_lasso)
    statuses = {name: fn(ctx)[0] for name, fn in ALL_CHECKS.items()}   # run_checks' order
    assert "fail" not in statuses.values(), statuses
    assert statuses["lasso-integrity"] == statuses["certificate-recheck"] == "pass"
    tl = long_lasso.target_lasso
    chain = ctx.pre_chains[long_lasso.target.bits]
    assert chain[:len(tl.supports)] == [s.bits for s in tl.supports]
    # two chain walks (T's and one more), then one Pre per trap and per
    # almost-sure weakly condition
    yes = sum(v.answer for (_, win), v in long_lasso.verdicts.items()
              if win in ("sure", "almost-sure", "limit-sure"))
    assert len(pre_calls) <= 2 * (tl.start + tl.period) + 2 * yes


def _flipped(lasso, index):
    """The lasso with state 0 toggled in its support at `index`."""
    supports = list(lasso.supports)
    supports[index] = SupportSet(supports[index].width, supports[index].bits ^ 1)
    return replace(lasso, supports=tuple(supports))


@pytest.mark.parametrize("plant, reason", [
    (lambda an: {"lasso": _flipped(an.lasso, 0)}, "support lasso does not run from s0 to its loop"),
    # 12,345 is no power of two, and neither l nor l + p
    (lambda an: {"lasso": _flipped(an.lasso, 12345)}, "support step broken at 12344"),
    # a period one short: every step holds, but step l + p - 1 does not repeat step l
    (lambda an: {"lasso": Lasso(an.lasso.supports[:-1], an.lasso.start, an.lasso.period - 1)},
     "support lasso does not run from s0 to its loop"),
    (lambda an: {"target_lasso": Lasso((SupportSet(an.mdp.n, (1 << an.mdp.n) - 1),)
                                       * len(an.target_lasso.supports),
                                       an.target_lasso.start, an.target_lasso.period)},
     "predecessor lasso does not run from the target to its loop"),
], ids=["step-0", "step-12345", "short-period", "full-predecessor"])
def test_lasso_integrity_catches_a_planted_long_lasso(long_lasso, plant, reason):
    (result,) = run_named(replace(long_lasso, **plant(long_lasso)), names={"lasso-integrity"})
    assert (result.status, result.info) == ("fail", {"reason": reason})


def _funnel_analysis(target="target"):
    pm = example_model("funnel")
    return analyze(pm.mdp, pm.initial, pm.targets[target])


def _with_cell(an, cell, **change):
    """The analysis with the verdict of `cell` replaced by a copy under `change`."""
    verdicts = dict(an.verdicts)
    verdicts[cell] = replace(verdicts[cell], **change)
    return replace(an, verdicts=verdicts)


# q0, q1, q2 step to the absorbing t: the predecessor lasso of {t} grows for k = 3
# steps, so a support strictly inside it (not its start, not its loop) can be planted
CHAIN = {
    "states": ["q0", "q1", "q2", "t"],
    "actions": ["a"],
    "transitions": [{"from": q, "action": "a", "to": r, "prob": "1"}
                    for q, r in (("q0", "q1"), ("q1", "q2"), ("q2", "t"), ("t", "t"))],
    "initial": {"q0": "1"},
    "targets": {"target": ["t"]},
}


def test_lasso_integrity_catches_a_planted_closure_or_predecessor_step(monkeypatch):
    an = _funnel_analysis()   # l = 3, p = 1, k = 1, r = 1 and 2^n = 16
    for plant, reason in [
            ({"lasso": replace(an.lasso, period=16)}, "closure 3+16 exceeds 2^n"),
            ({"target_lasso": replace(an.target_lasso, period=16)},
             "predecessor lasso exceeds 2^n")]:
        (result,) = run_named(replace(an, **plant), names={"lasso-integrity"})
        assert (result.status, result.info) == ("fail", {"reason": reason})
    pm = build(CHAIN)
    chain = analyze(pm.mdp, pm.initial, pm.targets["target"])
    assert (chain.target_lasso.start, chain.target_lasso.period) == (3, 1)
    (result,) = run_named(replace(chain, target_lasso=_flipped(chain.target_lasso, 1)),
                          names={"lasso-integrity"})
    assert (result.status, result.info) == ("fail", {"reason": "predecessor step broken at 0"})
    squares = checks.matrix_squares   # every power of M planted as the zero matrix
    monkeypatch.setattr(checks, "matrix_squares", lambda m, i: [[0] * m.n] * len(squares(m, i)))
    (result,) = run_named(an, names={"lasso-integrity"})
    assert (result.status, result.info) == ("fail", {"reason": "matrix power disagrees at step 1"})


def test_positive_definition_catches_a_flipped_verdict():
    an = _funnel_analysis()
    assert an.answer("weakly", "positive")
    (result,) = run_named(_with_cell(an, ("weakly", "positive"), answer=False),
                          names={"positive-definition-sim"})
    assert (result.status, result.info) == ("fail", {"mode": "weakly", "expected": True})


def test_support_monotonicity_catches_a_planted_uniform_play_or_ec_union():
    an = _funnel_analysis()
    # "uniform" play of action a alone never moves q1 on to q2; freezing play does at step 2
    narrow = StrategySpec("uniform", (0,), 0, ({},), {0: 1})
    (result,) = run_named(replace(an, cache={**an.cache, ("uniform",): narrow}),
                          names={"support-monotonicity"})
    assert (result.status, result.info) == (
        "fail", {"step": 2, "reason": "freezing support escapes uniform"})
    # past the switch (4), frozen q1 feeds q2 no more, while uniform play still does
    everything = replace(an.mec, union=SupportSet(an.mdp.n, (1 << an.mdp.n) - 1))
    (result,) = run_named(replace(an, mec=everything), names={"support-monotonicity"})
    assert (result.status, result.info) == (
        "fail", {"step": 5, "reason": "EC-intersection mismatch"})


def test_certificate_recheck_catches_a_planted_period_or_t_prime():
    an = _funnel_analysis()
    cell = ("eventually", "limit-sure")
    cert = an.verdicts[cell].certificate
    assert (cert["via"], cert["r"]) == ("product", 1)
    (result,) = run_named(_with_cell(an, cell, certificate={**cert, "r": 0}),
                          names={"certificate-recheck"})
    assert (result.status, result.info) == ("fail", {"mode": "eventually", "win": "limit-sure"})
    an = _funnel_analysis("plateau")   # T = {q1, q3}
    cell = ("weakly", "almost-sure")
    cert = an.verdicts[cell].certificate
    outside = SupportSet.of(an.mdp.n, [0, 2])   # {q0, q2}
    (result,) = run_named(_with_cell(an, cell, certificate={**cert, "t_prime": outside}),
                          names={"certificate-recheck"})
    assert (result.status, result.info) == ("fail", {"mode": "weakly", "win": "almost-sure"})
