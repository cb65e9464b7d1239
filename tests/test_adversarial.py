import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (SYNC_MODES, SupportSet, adversarial, analyze, decide_bounded,
                     decide_positive, freezing_strategy, mec_decomposition, simulate,
                     support_lasso, switch_point, uniform_strategy)
from syncmdp.adversarial import _graph_test_weakly
from syncmdp.checks import rows_image
from syncmdp.randgen import corpus, random_instance
from syncmdp.model import GuardExceeded

from conftest import ABSORBING, build, matrix_power, target_masses


def names(m, s):
    return set(s.names(m.states))


def test_support_lasso_drain(drain):
    m = drain.mdp
    lasso = support_lasso(m, drain.initial.support())
    assert [names(m, s) for s in lasso.supports] == [{"q0"}, {"q0", "q1"}, {"q0", "q1"}]
    assert lasso.start == 1 and lasso.period == 1
    assert switch_point(lasso) == 2


def test_support_lasso_funnel(funnel):
    m = funnel.mdp
    lasso = support_lasso(m, funnel.initial.support())
    assert lasso.start == 3 and lasso.period == 1
    assert names(m, lasso.at(3)) == {"q0", "q1", "q2", "q3"}
    assert names(m, lasso.at(100)) == {"q0", "q1", "q2", "q3"}


def test_support_lasso_absorbing():
    pm = build(ABSORBING)
    lasso = support_lasso(pm.mdp, pm.initial.support())
    assert lasso.start == 0 and lasso.period == 1
    assert switch_point(lasso) == 1


def test_switch_point_loopback(loopback):
    lasso = support_lasso(loopback.mdp, loopback.initial.support())
    assert switch_point(lasso) == 3
    assert switch_point(lasso) <= 2 ** loopback.mdp.n


def test_support_lasso_guard(funnel):
    with pytest.raises(GuardExceeded):
        support_lasso(funnel.mdp, funnel.initial.support(), max_len=2)


def test_matrix_power_identity_and_one(drain):
    m = drain.mdp
    assert matrix_power(m, 0) == (0b01, 0b10)
    assert matrix_power(m, 1) == m.post
    assert m.post == (0b11, 0b10)


def test_matrix_power_matches_lasso(funnel, loopback, twophase):
    for pm in (funnel, loopback, twophase):
        m = pm.mdp
        s0 = pm.initial.support()
        lasso = support_lasso(m, s0)
        for i in range(lasso.start + lasso.period + 1):
            assert rows_image(matrix_power(m, i), s0) == lasso.at(i)


def test_drain_positive_vs_bounded(drain):
    m, t = drain.mdp, drain.targets["target"]
    s0 = drain.initial.support()
    for mode in ("always", "eventually", "weakly", "strongly"):
        assert decide_positive(m, mode, t, s0).answer
    assert decide_bounded(m, "eventually", t, s0).answer
    for mode in ("always", "weakly", "strongly"):
        v = decide_bounded(m, mode, t, s0)
        assert not v.answer
    v = decide_bounded(m, "strongly", t, s0)
    assert v.detail["failing_index"] == 1  # first loop support {q0,q1} misses EC target
    assert not v.detail["condition2"]


def test_funnel_positive_weakly_graph_test_discrepancy(funnel):
    # the loop support contains q2 (mass keeps flowing in), yet no target
    # state can reach itself; both answers are reported
    m, t = funnel.mdp, funnel.targets["target"]
    v = decide_positive(m, "weakly", t, funnel.initial.support())
    assert v.answer
    assert v.detail["graph_test"] is False
    # exact simulation confirms the definition-faithful answer
    trace = simulate(m, uniform_strategy(m), funnel.initial, 12)
    assert all(v > 0 for v in target_masses(trace, t)[2:])


def test_funnel_bounded_weakly_no(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    v = decide_bounded(m, "weakly", t, funnel.initial.support())
    assert not v.answer  # EC union is {q1,q3}, disjoint from {q2}


def test_loopback_bounded_weakly_yes(loopback):
    m, t = loopback.mdp, loopback.targets["target"]
    v = decide_bounded(m, "weakly", t, loopback.initial.support())
    assert v.answer
    assert v.witness is not None and v.witness.label == "freezing"


def test_empty_target_all_no(funnel):
    m = funnel.mdp
    s0 = funnel.initial.support()
    for mode in ("always", "eventually", "weakly", "strongly"):
        assert not decide_positive(m, mode, SupportSet(m.n), s0).answer
        assert not decide_bounded(m, mode, SupportSet(m.n), s0).answer


def test_freezing_rows(funnel, loopback):
    m = loopback.mdp
    lasso = support_lasso(m, loopback.initial.support())
    mec = mec_decomposition(m)
    frz = freezing_strategy(m, lasso, mec)
    sw = switch_point(lasso)
    q1 = m.states.index("q1")
    # a step counter saturating at the switch, the only position with forced rows
    assert (frz.memory, frz.loop_start) == (tuple(range(sw + 1)), sw)
    assert not any(frz.forced[:sw])
    assert frz.forced[sw][q1] == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    m2 = funnel.mdp
    lasso2 = support_lasso(m2, funnel.initial.support())
    frz2 = freezing_strategy(m2, lasso2, mec_decomposition(m2))
    sw2 = switch_point(lasso2)
    q1 = m2.states.index("q1")
    assert frz2.forced[sw2][q1] == {0: Fraction(1)}  # action b leaves the MEC {q1}
    # before the switch everything is uniform
    assert q1 not in frz2.forced[0]
    assert frz2.default == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_freezing_on_markov_chain_equals_uniform(twophase):
    m = twophase.mdp
    lasso = support_lasso(m, twophase.initial.support())
    frz = freezing_strategy(m, lasso, mec_decomposition(m))
    uni = uniform_strategy(m)
    t_f = simulate(m, frz, twophase.initial, 8)
    t_u = simulate(m, uni, twophase.initial, 8)
    assert (t_f.nums, t_f.totals) == (t_u.nums, t_u.totals)


def test_condition_flags_match_verdicts(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    s0 = twophase.initial.support()
    pos_always = decide_positive(m, "always", t, s0)
    assert not pos_always.answer and pos_always.detail["failing_index"] == 0
    bnd_strong = decide_bounded(m, "strongly", t, s0)
    assert bnd_strong.answer and bnd_strong.detail["condition2"]
    bnd_always = decide_bounded(m, "always", t, s0)
    assert not bnd_always.answer  # condition1 fails at step 0
    assert bnd_always.detail["failing_index"] == 0


def old_decide(m, win, sync_mode, t, s0):
    """Reference: a positive/bounded cell as scanning the support lasso anew per
    cell decided it: (answer, detail, certificate, witness label)."""
    lasso = support_lasso(m, s0)
    mec = mec_decomposition(m)
    supports, loop = lasso.distinct(), lasso.supports[lasso.start:lasso.start + lasso.period]
    l, p, sw = lasso.start, lasso.period, switch_point(lasso)
    te = t & mec.union
    cond1 = all(s & t for s in supports)
    cond2 = all(s & te for s in loop)

    def first_missing(seq, x, offset=0):
        return next((offset + i for i, s in enumerate(seq) if not s & x), None)

    hit = graph_test = None
    if sync_mode == "eventually":
        hit = next((i for i, s in enumerate(supports) if s & t), None)
        failing = None if hit is not None else 0
    elif sync_mode == "weakly" and win == "positive":
        hit = next((l + i for i, s in enumerate(loop) if s & t), None)
        failing = None if hit is not None else l
        graph_test = _graph_test_weakly(m, lasso, t)
    elif sync_mode == "weakly":
        hit = next((i for i, s in enumerate(supports) if s & te), None)
        failing = None if hit is not None else 0
    elif sync_mode == "strongly":
        failing = first_missing(loop, t if win == "positive" else te, offset=l)
    else:
        failing = first_missing(supports, t)
        if failing is None and win == "bounded":
            failing = first_missing(loop, te, offset=l)
    answer = failing is None
    cert = {"kind": f"{win}-{sync_mode}", "loop_start": l, "period": p}
    if win == "bounded":
        cert["switch"] = sw
    if answer and hit is not None:
        cert["hit_index"] = hit
    label = None
    if answer:
        label = "freezing" if win == "bounded" and sync_mode != "eventually" else "uniform"
    detail = {"condition1": cond1, "condition2": cond2, "failing_index": failing,
              "loop_start": l, "period": p, "switch": sw, "graph_test": graph_test}
    return answer, detail, cert, label


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(1, 6))
def test_cells_match_the_per_cell_scan(seed, n, max_denominator):
    inst = random_instance(random.Random(seed), n=n, max_actions=3,
                           max_denominator=max_denominator)
    an = analyze(inst.mdp, inst.initial, inst.target)
    for mode in SYNC_MODES:
        for win in ("positive", "bounded"):
            v = an.verdicts[(mode, win)]
            got = v.answer, v.detail, v.certificate, v.witness and v.witness.label
            assert got == old_decide(inst.mdp, win, mode, inst.target,
                                     inst.initial.support())


def test_one_lasso_scan_per_initial_support_and_target(monkeypatch):
    scans = []

    def counting(lasso, t, te):
        scans.append((lasso.supports[0].bits, t.bits))
        return misses(lasso, t, te)

    misses = adversarial._lasso_misses
    monkeypatch.setattr(adversarial, "_lasso_misses", counting)
    for inst in corpus(20260810, 20):
        scans.clear()
        m, s0, t = inst.mdp, inst.initial.support(), inst.target
        an = analyze(m, inst.initial, t)
        other = SupportSet(m.n, ~t.bits & (1 << m.n) - 1)
        questions = [(decide, mode, target) for decide in (decide_positive, decide_bounded)
                     for mode in SYNC_MODES for target in (t, other)]
        # more cells asked on the same memo read its scan of each target
        memo = [decide(m, mode, target, s0, cache=an.cache) for decide, mode, target in questions]
        assert scans == [(s0.bits, t.bits), (s0.bits, other.bits)]
        assert memo == [decide(m, mode, target, s0) for decide, mode, target in questions]
