import random
from fractions import Fraction

import pytest

from syncmdp import (Dist, PreMap, SupportSet, decide_almost_sure, decide_limit_sure,
                     decide_sure, pre, simulate)
from syncmdp import classic
from syncmdp.checks import _certified
from syncmdp.model import DEFAULT_LIMITS, GuardExceeded, Limits
from syncmdp.randgen import corpus, random_instance
from syncmdp.regions import pre_lasso

from conftest import ABSORBING, build, feeder_cycle, support, target_masses


def test_funnel_eventually_modes(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    s0 = funnel.initial.support()
    assert not decide_sure(m, "eventually", t, s0).answer
    assert not decide_almost_sure(m, "eventually", t, s0).answer
    v = decide_limit_sure(m, "eventually", t, s0)
    assert v.answer
    assert v.certificate["via"] == "product"
    assert v.certificate["r"] == 1 and v.certificate["k"] == 1
    assert set(v.certificate["R"].names(m.states)) == {"q1"}


def test_funnel_other_modes_all_no(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    s0 = funnel.initial.support()
    for mode in ("always", "weakly", "strongly"):
        assert not decide_sure(m, mode, t, s0).answer
        assert not decide_almost_sure(m, mode, t, s0).answer


def test_loopback_almost_sure_weakly(loopback):
    m, t = loopback.mdp, loopback.targets["target"]
    s0 = loopback.initial.support()
    v = decide_almost_sure(m, "weakly", t, s0)
    assert v.answer
    assert set(v.certificate["t_prime"].names(m.states)) == {"q2"}
    assert decide_limit_sure(m, "weakly", t, s0).answer


def test_twophase_eventually(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    v1 = decide_sure(m, "eventually", t, support(m, ["q1"]))
    assert v1.answer and v1.certificate["k"] == 1
    v3 = decide_sure(m, "eventually", t, support(m, ["q3"]))
    assert v3.answer and v3.certificate["k"] == 0
    both = support(m, ["q1", "q3"])
    assert not decide_sure(m, "eventually", t, both).answer
    v = decide_limit_sure(m, "eventually", t, both)
    assert not v.answer
    assert set(v.certificate["failing_subsupport"].names(m.states)) == {"q1", "q3"}


def test_always_full_target_trivial(funnel, twophase):
    for pm in (funnel, twophase):
        m = pm.mdp
        assert decide_sure(m, "always", support(m, m.states), pm.initial.support()).answer


def test_weakly_empty_target_no(funnel):
    m = funnel.mdp
    s0 = funnel.initial.support()
    assert not decide_almost_sure(m, "weakly", SupportSet(m.n), s0).answer
    assert not decide_sure(m, "weakly", SupportSet(m.n), s0).answer


def test_empty_target_all_modes_no(funnel):
    m = funnel.mdp
    s0 = funnel.initial.support()
    empty = SupportSet(m.n)
    for mode in ("always", "eventually", "weakly", "strongly"):
        assert not decide_sure(m, mode, empty, s0).answer
        assert not decide_almost_sure(m, mode, empty, s0).answer
        assert not decide_limit_sure(m, mode, empty, s0).answer


def test_absorbing_dirac_all_limit_modes_yes():
    pm = build(ABSORBING)
    m, t, s0 = pm.mdp, pm.targets["target"], pm.initial.support()
    for mode in ("always", "eventually", "weakly", "strongly"):
        assert decide_limit_sure(m, mode, t, s0).answer


def test_twophase_sure_weakly_certificate(twophase):
    m, t, s0 = twophase.mdp, twophase.targets["target"], support(twophase.mdp, ["q1"])
    v = decide_sure(m, "weakly", t, s0)
    assert v.answer
    cert = v.certificate
    assert set(cert["set"].names(m.states)) == {"q2", "q3"}
    assert cert["k"] == 1 and cert["r"] == 2
    assert _certified(m, t, s0, v.certificate, {}, {})


def test_countdown_strategy_twophase(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    s = classic._countdown_strategy(m, pre_lasso(m, t), 1)
    trace = simulate(m, s, Dist.dirac(m.n, m.states.index("q1")), 3)
    assert target_masses(trace, t)[1] == 1


def test_countdown_zero_steps(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    s = classic._countdown_strategy(m, pre_lasso(m, t), 0)
    trace = simulate(m, s, Dist.dirac(m.n, m.states.index("q3")), 2)
    assert target_masses(trace, t)[0] == 1


def test_countdown_holds_self_loop(funnel):
    m = funnel.mdp
    t = support(m, ["q1"])
    s = classic._countdown_strategy(m, pre_lasso(m, t), 1)
    trace = simulate(m, s, Dist.dirac(m.n, m.states.index("q1")), 1)
    assert all(v == 1 for v in target_masses(trace, t))


def test_countdown_precondition(drain, funnel, loopback, twophase):
    # the countdown of k levels puts all mass in T at step k only from inside
    # Pre^k(T): sure eventually picks the first such k, and answers no (q0 of
    # twophase) where there is none
    for pm in (drain, funnel, loopback, twophase):
        m, t = pm.mdp, pm.targets["target"]
        lasso = pre_lasso(m, t)
        for s0 in [pm.initial.support()] + [support(m, [q]) for q in m.states]:
            v = decide_sure(m, "eventually", t, s0)
            fits = [i for i, sup in enumerate(lasso.distinct()) if s0 <= sup]
            assert v.answer == bool(fits)
            if v.answer:
                k = v.certificate["k"]
                assert k == fits[0] and s0 <= lasso.at(k)
    assert not decide_sure(twophase.mdp, "eventually", twophase.targets["target"],
                           support(twophase.mdp, ["q0"])).answer


def test_witnesses_simulate_correctly(funnel, twophase):
    # sure-always witness keeps the full mass inside the target forever
    m = funnel.mdp
    t = support(m, ["q1", "q3"])
    v = decide_sure(m, "always", t, support(m, ["q1"]))
    assert v.answer and v.witness is not None
    trace = simulate(m, v.witness, Dist.dirac(m.n, m.states.index("q1")), 10)
    assert all(v == 1 for v in target_masses(trace, t))

    # sure-weakly witness re-synchronizes every r steps
    m4, t4 = twophase.mdp, twophase.targets["target"]
    v = decide_sure(m4, "weakly", t4, support(m4, ["q1"]))
    k, r = v.certificate["k"], v.certificate["r"]
    trace = simulate(m4, v.witness, Dist.dirac(m4.n, m4.states.index("q1")), k + 4 * r)
    for i in range(k, k + 4 * r + 1, r):
        assert target_masses(trace, t4)[i] == 1


def test_weakly_cycle_witness_with_approach_and_period():
    # two-step approach chain into a two-cycle, target on one side of the cycle
    pm = build({
        "states": ["s0", "s1", "c0", "c1"], "actions": ["a"],
        "transitions": [
            {"from": "s0", "action": "a", "to": "s1", "prob": "1"},
            {"from": "s1", "action": "a", "to": "c0", "prob": "1"},
            {"from": "c0", "action": "a", "to": "c1", "prob": "1"},
            {"from": "c1", "action": "a", "to": "c0", "prob": "1"},
        ],
        "initial": {"s0": "1"},
        "targets": {"goal": ["c0"]},
    })
    m, t = pm.mdp, pm.targets["goal"]
    v = decide_sure(m, "weakly", t, pm.initial.support())
    assert v.answer
    k, r = v.certificate["k"], v.certificate["r"]
    assert (k, r) == (2, 2)
    trace = simulate(m, v.witness, pm.initial, k + 3 * r)
    for i in range(k + 3 * r + 1):
        expected = 1 if (i >= k and (i - k) % r == 0) else 0
        assert target_masses(trace, t)[i] == expected, i


def test_sure_strongly_witness():
    pm = build({
        "states": ["s", "t"], "actions": ["a"],
        "transitions": [
            {"from": "s", "action": "a", "to": "t", "prob": "1"},
            {"from": "t", "action": "a", "to": "t", "prob": "1"},
        ],
        "initial": {"s": "1"},
        "targets": {"goal": ["t"]},
    })
    m, t, s0 = pm.mdp, pm.targets["goal"], pm.initial.support()
    v = decide_sure(m, "strongly", t, s0)
    assert v.answer and v.witness is not None
    trace = simulate(m, v.witness, pm.initial, 6)
    assert all(v == 1 for v in target_masses(trace, t)[m.n:])
    assert _certified(m, t, s0, v.certificate, {}, {})


def test_certificates_recheck_on_examples(drain, funnel, loopback, twophase):
    for pm in (drain, funnel, loopback, twophase):
        m, t, s0 = pm.mdp, pm.targets["target"], pm.initial.support()
        for mode in ("always", "eventually", "weakly", "strongly"):
            for decide in (decide_sure, decide_almost_sure, decide_limit_sure):
                v = decide(m, mode, t, s0)
                assert not v.answer or _certified(m, t, s0, v.certificate, {}, {})


def test_subset_search_guard(funnel):
    # the guard bounds the fixpoint bound Z, not the target: funnel's Z is empty
    # ({q2} cannot limit-sure return to Pre({q2})), so width 0 decides it unwalked
    m = funnel.mdp
    assert not decide_almost_sure(m, "weakly", support(m, ["q2"]), funnel.initial.support(),
                                  limits=Limits(subset_width=0)).answer
    # Z = T = {a0, b0} fails the second condition, so its proper subsets are walked
    pm = build(feeder_cycle(1))
    m, t, s0 = pm.mdp, pm.targets["target"], pm.initial.support()
    with pytest.raises(GuardExceeded) as exc:
        decide_almost_sure(m, "weakly", t, s0, limits=Limits(subset_width=1))
    assert exc.value.stage == "subset-search"
    assert str(exc.value) == ("subset-search: fixpoint bound has 2 of the target's 2 states, "
                              "guard is 1")
    v = decide_almost_sure(m, "weakly", t, s0, limits=Limits(subset_width=2))
    assert v.answer and v.certificate["t_prime"] == support(m, ["a0"])


def test_sure_weakly_builds_at_most_one_lasso_per_target_state(monkeypatch):
    # s0 -> ... -> s9 -> sink: no nonempty subset of T = {s0..s9} recurs, so a
    # search over subsets would build all 2^10 - 1 of their predecessor lassos
    names = [f"s{i}" for i in range(10)] + ["sink"]
    m = build({
        "states": names, "actions": ["a"],
        "transitions": [{"from": q, "action": "a", "to": nxt, "prob": "1"}
                        for q, nxt in zip(names, names[1:] + ["sink"])],
        "initial": {"s0": "1"},
        "targets": {"target": names[:10]},
    })
    built = []

    def counting(mdp, t, *args):
        built.append(t)
        return pre_lasso(mdp, t, *args)
    monkeypatch.setattr(classic, "pre_lasso", counting)
    v = decide_sure(m.mdp, "weakly", m.targets["target"], m.initial.support(), cache={})
    assert not v.answer
    assert len(built) <= 10   # each fixpoint round drops a state; the empty set needs none
    # with the limit set to zero the fixpoint still decides: only the
    # almost-sure weakly search is a subset search
    v = decide_sure(m.mdp, "weakly", m.targets["target"], m.initial.support(),
                    limits=Limits(subset_width=0))
    assert not v.answer


def test_almost_sure_weakly_skips_subsets_of_an_unreachable_target(monkeypatch):
    # s0 sits in an absorbing sink outside T = {t0..t9}: s0 cannot limit-sure
    # reach T, hence no subset of it, and a search over all subsets would try
    # each of the 2^10 - 1
    names = [f"t{i}" for i in range(10)]
    m = build({
        "states": names + ["sink"], "actions": ["a"],
        "transitions": [{"from": q, "action": "a", "to": nxt, "prob": "1"}
                        for q, nxt in zip(names + ["sink"], names[1:] + ["t0", "sink"])],
        "initial": {"sink": "1"},
        "targets": {"target": names},
    })
    tried = []
    limit_eventually = classic._limit_eventually

    def counting(mdp, t, s0, cache, limits):
        tried.append(t)
        return limit_eventually(mdp, t, s0, cache, limits)
    monkeypatch.setattr(classic, "_limit_eventually", counting)
    v = decide_almost_sure(m.mdp, "weakly", m.targets["target"], m.initial.support(),
                           cache={})
    assert not v.answer
    assert len(tried) <= 2


def test_almost_sure_weakly_search_does_not_skip_past_an_unreachable_subset():
    # s0 -> s1 -> s4 -> s0 is a 3-cycle, s2 feeds it and s3 is absorbing; from
    # {s4}, with T = Z = {s2, s3, s4}: T fails (2), {s2, s3} is out of reach,
    # {s2, s4} fails (2) and {s3, s4} is the first hit. A search skipping the
    # subsets that share a state with an unreachable one answers {s4} instead.
    names = [f"s{i}" for i in range(5)]
    edges = [("s0", "s1"), ("s1", "s4"), ("s4", "s0"), ("s2", "s1"), ("s3", "s3")]
    pm = build({
        "states": names, "actions": ["a"],
        "transitions": [{"from": q, "action": "a", "to": nxt, "prob": "1"}
                        for q, nxt in edges],
        "initial": {"s4": "1"},
        "targets": {"target": ["s2", "s3", "s4"]},
    })
    m, t, s0 = pm.mdp, pm.targets["target"], pm.initial.support()
    cache = {}
    assert classic._weakly_bound(m, t, cache, DEFAULT_LIMITS) == t
    assert classic._limit_eventually(m, support(m, ["s2", "s3"]), s0, cache,
                                     DEFAULT_LIMITS) is None
    v = decide_almost_sure(m, "weakly", t, s0)
    assert v.answer and v.certificate["t_prime"] == support(m, ["s3", "s4"])
    assert _certified(m, t, s0, v.certificate, {}, {})


def _large_tier(seed):
    """34 models for each n = 8, 12, 16 from `random.Random(seed)` per n, with 3
    actions and denominators <= 6 (the benchmark's large tier)."""
    models = []
    for n in (8, 12, 16):
        rng = random.Random(seed)
        models.extend(random_instance(rng, n=n, max_actions=3, max_denominator=6)
                      for _ in range(34))
    return models


def _unpruned_almost_sure_weakly(m, t, s0):
    """Reference: the first subset T' of the fixpoint bound Z, in `_subsets_desc`
    order, with s0 limit-sure eventually in T' and T' limit-sure eventually in
    Pre(T'), trying every subset; None when none qualifies."""
    cache = {}
    z = classic._weakly_bound(m, t, cache, DEFAULT_LIMITS)
    for bits in classic._subsets_desc(z, t, DEFAULT_LIMITS):
        t2 = SupportSet(t.width, bits)
        if (classic._limit_eventually(m, t2, s0, cache, DEFAULT_LIMITS) is not None
                and classic._limit_eventually(m, pre(m, t2), t2, cache,
                                              DEFAULT_LIMITS) is not None):
            return t2
    return None


@pytest.mark.parametrize("models", [
    # the large tier of seed 11 holds 62 subsets that a search skipping the
    # subsets of failed sets never tries, and each corpus 2
    pytest.param(lambda: _large_tier(11), id="large-11"),
    pytest.param(lambda: corpus(20260810, 500), id="corpus-20260810"),
    pytest.param(lambda: corpus(20260811, 500), id="corpus-20260811"),
])
def test_almost_sure_weakly_matches_an_unpruned_search(models):
    for index, inst in enumerate(models()):
        m, t, s0 = inst.mdp, inst.target, inst.initial.support()
        v = decide_almost_sure(m, "weakly", t, s0)
        found = v.certificate["t_prime"] if v.answer else None
        assert found == _unpruned_almost_sure_weakly(m, t, s0), index


def test_support_only_dependence(funnel):
    # two distributions with equal support get identical verdicts
    m, t = funnel.mdp, funnel.targets["target"]
    s0 = support(m, ["q0", "q1"])
    for mode in ("eventually", "weakly"):
        for decide in (decide_sure, decide_almost_sure, decide_limit_sure):
            assert decide(m, mode, t, s0).answer == decide(m, mode, t, s0).answer
    d_a = Dist(4, {0: Fraction(1, 4), 1: Fraction(3, 4)})
    d_b = Dist(4, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert d_a.support() == d_b.support() == s0


def test_a_direct_call_answers_through_one_memo(loopback, monkeypatch):
    # a decider called without `cache` starts one memo for the whole call: the
    # almost-sure weakly search reads one PreMap across all its sub-queries
    built = []

    class CountedPreMap(PreMap):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)

    monkeypatch.setattr(classic, "PreMap", CountedPreMap)
    m, t = loopback.mdp, loopback.targets["target"]
    assert decide_almost_sure(m, "weakly", t, loopback.initial.support()).answer
    assert built == [m]
