import pytest

from syncmdp import (SupportSet, almost_sure_reach_region,
                     mec_decomposition, pre, pre_lasso, reach_layers,
                     sure_reach_region, sure_safety_region)
from syncmdp.model import GuardExceeded
from syncmdp.regions import _apre

from conftest import build


def names(m, s):
    return set(s.names(m.states))


def test_pre_examples(funnel):
    m = funnel.mdp
    assert names(m, pre(m, m.support(["q2"]))) == {"q1"}
    assert pre(m, SupportSet.full(m.n)) == SupportSet.full(m.n)
    assert pre(m, SupportSet(m.n)) == SupportSet(m.n)


def test_apre_examples(funnel):
    m = funnel.mdp
    bits = _apre(m.succ, m.support(["q1", "q2"]).bits, m.support(["q2"]).bits)
    assert names(m, SupportSet(m.n, bits)) == {"q1"}
    assert _apre(m.succ, m.support(["q1"]).bits, 0) == 0


def test_pre_lasso_funnel(funnel):
    m = funnel.mdp
    lasso = pre_lasso(m, m.support(["q2"]))
    assert lasso.start == 1 and lasso.period == 1
    assert [names(m, s) for s in lasso.supports] == [{"q2"}, {"q1"}, {"q1"}]
    assert lasso.at(7) == lasso.supports[1]


def test_pre_lasso_twophase(twophase):
    m = twophase.mdp
    lasso = pre_lasso(m, m.support(["q2", "q3"]))
    assert lasso.start == 0 and lasso.period == 2
    assert names(m, lasso.supports[1]) == {"q1", "q4"}
    assert lasso.supports[2] == lasso.supports[0]


def test_pre_lasso_fixpoint_at_root(funnel):
    m = funnel.mdp
    lasso = pre_lasso(m, SupportSet.full(m.n))
    assert lasso.start == 0 and lasso.period == 1


def test_pre_lasso_guard(funnel):
    with pytest.raises(GuardExceeded):
        pre_lasso(funnel.mdp, funnel.mdp.support(["q2"]), max_len=1)


def test_safety_examples(drain, funnel):
    m1 = drain.mdp
    assert sure_safety_region(m1, m1.support(["q0"])) == SupportSet(m1.n)
    m2 = funnel.mdp
    assert sure_safety_region(m2, SupportSet.full(m2.n)) == SupportSet.full(m2.n)
    assert names(m2, sure_safety_region(m2, m2.support(["q1", "q3"]))) == {"q1", "q3"}


def test_reach_examples(funnel):
    m = funnel.mdp
    assert sure_reach_region(m, SupportSet.full(m.n)) == SupportSet.full(m.n)
    assert names(m, sure_reach_region(m, m.support(["q1"]))) == {"q1"}
    chain = build({
        "states": ["q", "r"], "actions": ["a"],
        "transitions": [
            {"from": "q", "action": "a", "to": "r", "prob": "1"},
            {"from": "r", "action": "a", "to": "r", "prob": "1"},
        ],
        "initial": {"q": "1"},
    }).mdp
    assert names(chain, sure_reach_region(chain, chain.support(["r"]))) == {"q", "r"}
    layers = reach_layers(chain, chain.support(["r"]))
    assert [names(chain, s) for s in layers] == [{"r"}, {"q", "r"}]


def test_almost_sure_reach_funnel(funnel):
    m = funnel.mdp
    assert names(m, almost_sure_reach_region(m, m.support(["q1"]))) == {"q0", "q1"}
    assert almost_sure_reach_region(m, SupportSet.full(m.n)) == SupportSet.full(m.n)
    # q3 is a sink that never reaches q2; everything else can funnel through b
    assert names(m, almost_sure_reach_region(m, m.support(["q2"]))) == {"q0", "q1", "q2"}


def test_mec_examples(drain, funnel, twophase):
    m2 = funnel.mdp
    dec = mec_decomposition(m2)
    assert [names(m2, c) for c in dec.components] == [{"q1"}, {"q3"}]
    assert names(m2, dec.union) == {"q1", "q3"}
    assert dec.internal_actions[m2.state_index("q1")] == (0,)
    assert all(m2.state_index("q0") not in c for c in dec.components)

    m4 = twophase.mdp
    dec4 = mec_decomposition(m4)
    assert [names(m4, c) for c in dec4.components] == [{"q1", "q2"}, {"q3", "q4"}]

    m1 = drain.mdp
    dec1 = mec_decomposition(m1)
    assert [names(m1, c) for c in dec1.components] == [{"q1"}]


def test_mec_whole_model_is_one_component(loopback):
    m = loopback.mdp
    dec = mec_decomposition(m)
    assert [names(m, c) for c in dec.components] == [{"q0", "q1", "q2"}]
    q1 = m.state_index("q1")
    assert dec.internal_actions[q1] == (0, 1)


def test_fixpoints_stabilize_quickly(funnel):
    # monotone iterations: n steps suffice, so a (n+1)-long chain must repeat
    m = funnel.mdp
    t = m.support(["q1"])
    y = SupportSet.full(m.n)
    seen = [y]
    for _ in range(m.n + 1):
        y = t & pre(m, y)
        seen.append(y)
    assert seen[-1] == seen[-2]
