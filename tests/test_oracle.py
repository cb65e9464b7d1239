from fractions import Fraction

import pytest

from syncmdp import (BudgetExceeded, Dist, StrategySpec, count_synchronized_positions,
                     enumerate_pure_strategies, max_mass_at_step, max_reach_values,
                     simulate, uniform_strategy)

from conftest import ABSORBING, build


def hold_strategy(m, plan):
    """Memoryless strategy playing a fixed action per state (dict by name)."""
    choice = {}
    update = {}
    for q in range(m.n):
        name = m.states[q]
        if name in plan:
            choice[(0, q)] = {m.actions.index(plan[name]): Fraction(1)}
        else:
            share = Fraction(1, m.action_count)
            choice[(0, q)] = {a: share for a in range(m.action_count)}
        update[(0, q)] = 0
    return StrategySpec("hold", (0,), 0, choice, update)


def switch_strategy(m, state, first, then, at):
    """Plays `first` at `state` before step `at`, `then` afterwards."""
    choice = {}
    update = {}
    share = Fraction(1, m.action_count)
    for j in range(at + 1):
        for q in range(m.n):
            if m.states[q] == state:
                action = first if j < at else then
                choice[(j, q)] = {m.actions.index(action): Fraction(1)}
            else:
                choice[(j, q)] = {a: share for a in range(m.action_count)}
            update[(j, q)] = min(j + 1, at)
    return StrategySpec(f"switch@{at}", tuple(range(at + 1)), 0, choice, update)


def test_simulate_drain_geometric(drain):
    m = drain.mdp
    trace = simulate(m, uniform_strategy(m), drain.initial, 3)
    for i, d in enumerate(trace.dists):
        assert d[m.state_index("q0")] == Fraction(1, 2) ** i


def test_simulate_loopback_hold_a(loopback):
    m = loopback.mdp
    trace = simulate(m, hold_strategy(m, {"q1": "a"}), loopback.initial, 6)
    q1 = m.state_index("q1")
    for k, d in enumerate(trace.dists):
        assert d[q1] == 1 - Fraction(1, 2) ** k


def test_simulate_absorbing_constant():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 5)
    assert all(d == pm.initial for d in trace.dists)


def test_simulate_masses_exact(funnel):
    m = funnel.mdp
    trace = simulate(m, uniform_strategy(m), funnel.initial, 20)
    for d in trace.dists:
        assert sum(d.mass.values()) == 1


def test_max_mass_funnel(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    profile = max_mass_at_step(m, t, funnel.initial, 10)
    assert profile.values[0] == 0
    for i in range(1, 11):
        assert profile.values[i] == 1 - Fraction(1, 2) ** (i - 1)


def test_max_mass_twophase_half(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    d0 = Dist.uniform(m.n, [m.state_index("q1"), m.state_index("q3")])
    profile = max_mass_at_step(m, t, d0, 50)
    assert all(v == Fraction(1, 2) for v in profile.values)


def test_max_mass_full_target(funnel):
    m = funnel.mdp
    profile = max_mass_at_step(m, m.full_support(), funnel.initial, 5)
    assert all(v == 1 for v in profile.values)


def test_simulation_never_beats_dp(funnel, loopback):
    for pm in (funnel, loopback):
        m, t = pm.mdp, pm.targets["target"]
        profile = max_mass_at_step(m, t, pm.initial, 25)
        for strategy in (uniform_strategy(m), hold_strategy(m, {"q1": "b"})):
            trace = simulate(m, strategy, pm.initial, 25)
            for i, d in enumerate(trace.dists):
                assert d.mass_in(t) <= profile.values[i]


def test_enumerate_single_action_chain(twophase):
    out = list(enumerate_pure_strategies(twophase.mdp, twophase.initial, 3))
    assert len(out) == 1


def test_enumerate_funnel_depth_two(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    out = list(enumerate_pure_strategies(m, funnel.initial, 2))
    assert len(out) == 32  # |A|^(1 + |A|*|supp(q0)|) decision histories
    for _, trace in out:
        assert all(d.mass_in(t) <= Fraction(1, 2) for d in trace.dists)
    labels = {s.label for s, _ in out}
    assert len(labels) == 32


def test_enumerate_budget_guard(funnel):
    gen = enumerate_pure_strategies(funnel.mdp, funnel.initial, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        next(gen)


def test_count_positions_funnel_switch(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    trace = simulate(m, switch_strategy(m, "q1", "a", "b", 3), funnel.initial, 8)
    assert trace.dists[4].mass_in(t) == Fraction(7, 8)
    count, positions = count_synchronized_positions(trace, t, Fraction(3, 4))
    assert count == 1 and positions == (4,)


def test_count_positions_twophase_never_exceeds_half(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    trace = simulate(m, uniform_strategy(m), twophase.initial, 30)
    count, _ = count_synchronized_positions(trace, t, Fraction(1, 2))
    assert count == 0  # mass sits at exactly one half forever


def test_count_positions_constant_trace():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 4)
    count, positions = count_synchronized_positions(
        trace, pm.targets["target"], Fraction(9, 10))
    assert count == 5 and positions == (0, 1, 2, 3, 4)


def test_count_positions_strict_flag():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 2)
    strict, _ = count_synchronized_positions(trace, pm.targets["target"], 1)
    lax, _ = count_synchronized_positions(trace, pm.targets["target"], 1, strict=False)
    assert strict == 0 and lax == 3


def test_max_reach_values(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    vals = max_reach_values(m, t, 200)
    assert vals[m.state_index("q2")] == 1
    assert vals[m.state_index("q1")] == 1
    assert vals[m.state_index("q3")] == 0
    # q0 must first flip out of its self-loop, then one b step: lag of one
    assert 1 - vals[m.state_index("q0")] == Fraction(1, 2) ** 199
