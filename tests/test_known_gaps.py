"""Why the prefix dips test the position bound per strategy: when sure always
fails, every strategy has a step i <= n with target mass at most 1 - eps_always,
but the per-step DP optimum need not dip at all, because different strategies
may dip at different steps. The SWAP model below is such a case, and the
battery passes on it.
"""

from fractions import Fraction

from syncmdp import (analyze, compute_bound, decide_sure, enumerate_pure_strategies,
                     max_mass_at_step, run_checks)

from conftest import as_fractions, build, target_masses

SWAP = {
    "states": ["q0", "x", "y"],
    "actions": ["a", "b"],
    "transitions": [
        {"from": "q0", "action": "a", "to": "x", "prob": "1"},
        {"from": "q0", "action": "b", "to": "y", "prob": "1"},
        {"from": "x", "action": "a", "to": "y", "prob": "1"},
        {"from": "x", "action": "b", "to": "y", "prob": "1"},
        {"from": "y", "action": "a", "to": "x", "prob": "1"},
        {"from": "y", "action": "b", "to": "x", "prob": "1"},
    ],
    "initial": {"q0": "1"},
    "targets": {"goal": ["q0", "x"]},
}


def test_prefix_dp_form_has_a_counterexample():
    pm = build(SWAP)
    m, t, d0 = pm.mdp, pm.targets["goal"], pm.initial
    assert not decide_sure(m, "always", t, d0.support()).answer

    eps = compute_bound("eps_always", m.n, m.action_count, Fraction(1), Fraction(1))
    assert eps.value == Fraction(1, 3)

    # per-step optima: a fresh strategy can sit in the target at every single
    # step, so the DP prefix minimum never dips below 1
    profile = as_fractions(max_mass_at_step(m, t, d0, m.n))
    assert min(profile) == 1 > 1 - eps.value

    # the per-strategy statement does hold: every pure strategy to depth n has
    # a step where the target mass falls to 1 - eps or lower
    for trace in enumerate_pure_strategies(m, d0, m.n):
        assert min(target_masses(trace, t)) <= 1 - eps.value


def test_counterexample_matrix_is_otherwise_consistent():
    pm = build(SWAP)
    analysis = analyze(pm.mdp, pm.initial, pm.targets["goal"])
    assert not analysis.answer("always", "sure")
    assert analysis.answer("weakly", "sure")  # alternate x at every other step
    results = run_checks(analysis, names={"always-prefix-dip", "strongly-prefix-dip"})
    assert [(r.name, r.status) for r in results] == [("always-prefix-dip", "pass"),
                                                     ("strongly-prefix-dip", "pass")]
