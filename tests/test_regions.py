import pytest

from syncmdp import (SupportSet, almost_sure_reach_region,
                     mec_decomposition, pre, pre_lasso, reach_layers,
                     sure_safety_region)
from syncmdp.model import GuardExceeded
from syncmdp.regions import _apre, _counter_apre

from conftest import build, prime_cycles, support


def names(m, s):
    return set(s.names(m.states))


def test_pre_examples(funnel):
    m = funnel.mdp
    assert names(m, pre(m, support(m, ["q2"]))) == {"q1"}
    assert pre(m, support(m, m.states)) == support(m, m.states)
    assert pre(m, SupportSet(m.n)) == SupportSet(m.n)


def test_apre_examples(funnel):
    m = funnel.mdp
    assert names(m, SupportSet(m.n, _apre(m.succ, support(m, ["q1", "q2"]).bits))) == {"q1"}
    # on counter masks at r = 1 (one bit per state), q1 keeps {q1, q2} and hits {q2} by b
    assert _counter_apre(m, [0, 1, 1, 0], [0, 0, 1, 0], 1) == [0, 1, 0, 0]
    assert _counter_apre(m, [0, 1, 0, 0], [0] * 4, 1) == [0] * 4
    # on the 3-cycle c3_0 -> c3_1 -> c3_2 at r = 3, counter i is bit 2 - i: c3_0 at
    # counter 1 steps to c3_1 at counter 0
    m = build(prime_cycles((3,))).mdp
    assert _counter_apre(m, [0b111] * 3, [0, 0b100, 0], 3) == [0b010, 0, 0]


def test_pre_lasso_funnel(funnel):
    m = funnel.mdp
    lasso = pre_lasso(m, support(m, ["q2"]))
    assert lasso.start == 1 and lasso.period == 1
    assert [names(m, s) for s in lasso.supports] == [{"q2"}, {"q1"}, {"q1"}]
    assert lasso.at(7) == lasso.supports[1]


def test_pre_lasso_twophase(twophase):
    m = twophase.mdp
    lasso = pre_lasso(m, support(m, ["q2", "q3"]))
    assert lasso.start == 0 and lasso.period == 2
    assert names(m, lasso.supports[1]) == {"q1", "q4"}
    assert lasso.supports[2] == lasso.supports[0]


def test_pre_lasso_fixpoint_at_root(funnel):
    m = funnel.mdp
    lasso = pre_lasso(m, support(m, m.states))
    assert lasso.start == 0 and lasso.period == 1


def test_pre_lasso_guard(funnel):
    with pytest.raises(GuardExceeded):
        pre_lasso(funnel.mdp, support(funnel.mdp, ["q2"]), max_len=1)


def test_safety_examples(drain, funnel):
    m1 = drain.mdp
    assert sure_safety_region(m1, support(m1, ["q0"])) == SupportSet(m1.n)
    m2 = funnel.mdp
    assert sure_safety_region(m2, support(m2, m2.states)) == support(m2, m2.states)
    assert names(m2, sure_safety_region(m2, support(m2, ["q1", "q3"]))) == {"q1", "q3"}


def test_reach_examples(funnel):
    m = funnel.mdp
    assert reach_layers(m, support(m, m.states))[-1] == support(m, m.states)
    assert names(m, reach_layers(m, support(m, ["q1"]))[-1]) == {"q1"}
    chain = build({
        "states": ["q", "r"], "actions": ["a"],
        "transitions": [
            {"from": "q", "action": "a", "to": "r", "prob": "1"},
            {"from": "r", "action": "a", "to": "r", "prob": "1"},
        ],
        "initial": {"q": "1"},
    }).mdp
    assert names(chain, reach_layers(chain, support(chain, ["r"]))[-1]) == {"q", "r"}
    layers = reach_layers(chain, support(chain, ["r"]))
    assert [names(chain, s) for s in layers] == [{"r"}, {"q", "r"}]


def test_almost_sure_reach_funnel(funnel):
    m = funnel.mdp
    assert names(m, almost_sure_reach_region(m, support(m, ["q1"]))) == {"q0", "q1"}
    assert almost_sure_reach_region(m, support(m, m.states)) == support(m, m.states)
    # q3 is a sink that never reaches q2; everything else can funnel through b
    assert names(m, almost_sure_reach_region(m, support(m, ["q2"]))) == {"q0", "q1", "q2"}


def test_mec_examples(drain, funnel, twophase):
    m2 = funnel.mdp
    dec = mec_decomposition(m2)
    assert [names(m2, c) for c in dec.components] == [{"q1"}, {"q3"}]
    assert names(m2, dec.union) == {"q1", "q3"}
    assert dec.internal_actions[m2.states.index("q1")] == (0,)
    assert all(m2.states.index("q0") not in c for c in dec.components)

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
    q1 = m.states.index("q1")
    assert dec.internal_actions[q1] == (0, 1)


def test_fixpoints_stabilize_quickly(funnel):
    # monotone iterations: n steps suffice, so a (n+1)-long chain must repeat
    m = funnel.mdp
    t = support(m, ["q1"])
    y = support(m, m.states)
    seen = [y]
    for _ in range(m.n + 1):
        y = t & pre(m, y)
        seen.append(y)
    assert seen[-1] == seen[-2]
