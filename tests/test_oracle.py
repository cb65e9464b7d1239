import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (BudgetExceeded, Dist, Mdp, StrategySpec, SupportSet,
                     count_synchronized_positions, enumerate_pure_strategies,
                     max_mass_at_step, max_reach_values, simulate, uniform_strategy)
from syncmdp.checks import _mask
from syncmdp.model import ZERO
from syncmdp.oracle import _numerator_in

from conftest import ABSORBING, build


def hold_strategy(m, plan):
    """Memoryless strategy playing a fixed action per state (dict by name)."""
    forced = {m.state_index(name): {m.actions.index(a): Fraction(1)}
              for name, a in plan.items()}
    return StrategySpec("hold", (0,), 0, (forced,), uniform_strategy(m).default)


def switch_strategy(m, state, first, then, at):
    """Plays `first` at `state` before step `at`, `then` afterwards."""
    q = m.state_index(state)
    before = {q: {m.actions.index(first): Fraction(1)}}
    after = {q: {m.actions.index(then): Fraction(1)}}
    return StrategySpec(f"switch@{at}", tuple(range(at + 1)), at, (before,) * at + (after,),
                        uniform_strategy(m).default)


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
    assert profile[0] == 0
    for i in range(1, 11):
        assert profile[i] == 1 - Fraction(1, 2) ** (i - 1)


def test_max_mass_twophase_half(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    half = Fraction(1, 2)
    d0 = Dist(m.n, {m.state_index("q1"): half, m.state_index("q3"): half})
    profile = max_mass_at_step(m, t, d0, 50)
    assert all(v == Fraction(1, 2) for v in profile)


def test_max_mass_full_target(funnel):
    m = funnel.mdp
    profile = max_mass_at_step(m, SupportSet.full(m.n), funnel.initial, 5)
    assert all(v == 1 for v in profile)


def test_simulation_never_beats_dp(funnel, loopback):
    for pm in (funnel, loopback):
        m, t = pm.mdp, pm.targets["target"]
        profile = max_mass_at_step(m, t, pm.initial, 25)
        for strategy in (uniform_strategy(m), hold_strategy(m, {"q1": "b"})):
            trace = simulate(m, strategy, pm.initial, 25)
            for i, d in enumerate(trace.dists):
                assert d.mass_in(t) <= profile[i]


def test_enumerate_single_action_chain(twophase):
    out = list(enumerate_pure_strategies(twophase.mdp, twophase.initial, 3))
    assert len(out) == 1


def test_enumerate_funnel_depth_two(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    out = list(enumerate_pure_strategies(m, funnel.initial, 2))
    assert len(out) == 32  # |A|^(1 + |A|*|supp(q0)|) decision histories
    for trace in out:
        assert all(d.mass_in(t) <= Fraction(1, 2) for d in trace.dists)
    labels = {trace.strategy_label for trace in out}
    assert len(labels) == 32
    assert out[0].strategy_label == "pure[0,0,0,0,0]"
    assert out[-1].strategy_label == "pure[1,1,1,1,1]"
    # each history prefix's step dict is one object for all the strategies
    # that agree on it: 1 initial + 2 after the root's pick + 32 leaves
    slots = [nums for trace in out for nums in trace.nums]
    assert len(slots) == 96 and len({id(nums) for nums in slots}) == 35
    assert out[0].nums[1] is out[1].nums[1]


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


# --- the integer kernels against the Fraction loops they replaced ---------------
#
# The reference functions below are the oracle's former Fraction loops, kept
# verbatim apart from their names: the integer kernels must give equal traces,
# profile values, reach values, and the same enumeration in the same order.
# They run general finite-memory strategies, given as dense tables.

@dataclass(frozen=True)
class TableStrategy:
    """Finite-memory strategy as dense tables: at step i the action is drawn from
    choice[(mem_i, q_i)] and the memory moves to update[(mem_i, q_i)]."""

    label: str
    initial_memory: object
    choice: dict
    update: dict


def as_tables(m, strategy):
    """The dense tables of a counting strategy, over every (memory value, state)."""
    choice, update = {}, {}
    for j, (mem, forced) in enumerate(zip(strategy.memory, strategy.forced)):
        for q in range(m.n):
            choice[(mem, q)] = forced.get(q, strategy.default)
            update[(mem, q)] = strategy.memory[strategy.next(j)]
    return TableStrategy(strategy.label, strategy.memory[0], choice, update)


def ref_simulate(m, strategy, d0, h):
    joint = {(strategy.initial_memory, q): p for q, p in d0.mass.items()}
    dists = [d0]
    for _ in range(h):
        nxt = {}
        for (mem, q), w in joint.items():
            mem2 = strategy.update[(mem, q)]
            for a, pa in strategy.choice[(mem, q)].items():
                if pa == 0:
                    continue
                for q2, p in m.delta[q][a].mass.items():
                    key = (mem2, q2)
                    nxt[key] = nxt.get(key, ZERO) + w * pa * p
        joint = nxt
        mass = {}
        for (_, q), w in joint.items():
            mass[q] = mass.get(q, ZERO) + w
        dists.append(Dist(m.n, mass))
    return tuple(dists)


def ref_max_mass_at_step(m, t, d0, h):
    w = [Fraction(1) if q in t else ZERO for q in range(m.n)]
    values = [sum((p * w[q] for q, p in d0.mass.items()), ZERO)]
    for _ in range(h):
        w = [max(sum((p * w[q2] for q2, p in m.delta[q][a].mass.items()), ZERO)
                 for a in range(m.action_count))
             for q in range(m.n)]
        values.append(sum((p * w[q] for q, p in d0.mass.items()), ZERO))
    return tuple(values)


def ref_max_reach_values(m, t, h):
    vals = [Fraction(1) if q in t else ZERO for q in range(m.n)]
    for _ in range(h):
        vals = [Fraction(1) if q in t else
                max(sum((p * vals[q2] for q2, p in m.delta[q][a].mass.items()), ZERO)
                    for a in range(m.action_count))
                for q in range(m.n)]
    return tuple(vals)


def ref_history_tree(m, d0, h, budget=None):
    level = [(q,) for q in sorted(d0.mass)]
    nodes = []
    for depth in range(h):
        nodes.extend(level)
        if budget is not None and len(nodes) > budget:
            raise BudgetExceeded("strategy-enumeration",
                                 f"history tree exceeds {budget} nodes")
        if depth == h - 1:
            break
        nxt = []
        for hist in level:
            q = hist[-1]
            for a in range(m.action_count):
                for q2 in sorted(m.delta[q][a].mass):
                    nxt.append(hist + (a, q2))
        level = nxt
    return nodes


def ref_enumerate_pure_strategies(m, d0, h, budget=10 ** 6):
    nodes = ref_history_tree(m, d0, h, budget=budget)
    count = len(nodes)
    a_count = m.action_count
    if budget < 1 or a_count > 1 and count * math.log2(a_count) \
            + math.log2(max(count, 1)) > math.log2(budget):
        raise BudgetExceeded("strategy-enumeration",
                             f"{a_count}^{count} strategies exceed budget {budget}")
    one = Fraction(1)
    share = Fraction(1, a_count)
    rows = {"uniform": {a: share for a in range(a_count)},
            "dirac": [{a: one} for a in range(a_count)]}
    for picks in iproduct(range(a_count), repeat=count):
        assignment = dict(zip(nodes, picks))
        strategy = ref_assignment_strategy(m, assignment, rows)
        yield strategy, ref_simulate(m, strategy, d0, h)


def ref_assignment_strategy(m, assignment, rows):
    uniform = rows["uniform"]
    dirac = rows["dirac"]
    choice = {}
    update = {}
    done = "done"
    prefixes = {()}
    for hist in assignment:
        prefixes.add(hist[:-1])
    for prefix in prefixes:
        for q in range(m.n):
            hist = prefix + (q,)
            if hist in assignment:
                a = assignment[hist]
                choice[(prefix, q)] = dirac[a]
                nxt = hist + (a,)
                update[(prefix, q)] = nxt if nxt in prefixes else done
            else:
                choice[(prefix, q)] = uniform
                update[(prefix, q)] = done
    for q in range(m.n):
        choice[(done, q)] = uniform
        update[(done, q)] = done
    label = "pure[" + ",".join(str(a) for a in assignment.values()) + "]"
    return TableStrategy(label, (), choice, update)


@st.composite
def rows(draw, keys, max_denominator=8, max_support=8, zeros=False):
    """A distribution over `keys` with denominator at most max_denominator;
    with `zeros`, some keys may carry an explicit zero."""
    size = draw(st.integers(1, min(len(keys), max_denominator, max_support)))
    support = draw(st.permutations(keys))[:size]
    denom = draw(st.integers(size, max_denominator))
    cuts = sorted(draw(st.sets(st.integers(1, denom - 1), min_size=size - 1,
                               max_size=size - 1))) if size > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    row = {k: Fraction(c, denom) for k, c in zip(support, parts)}
    if zeros:
        for k in keys:
            if k not in row and draw(st.booleans()):
                row[k] = Fraction(0)
    return row


@st.composite
def wide_instances(draw, max_states=6, min_actions=1, max_actions=3, max_support=8):
    """Models past the toy corpus: n <= 6, three actions, denominators <= 8
    (narrower supports keep a pure-strategy enumeration within budget)."""
    n = draw(st.integers(1, max_states))
    a_count = draw(st.integers(min_actions, max_actions))
    delta = [[Dist(n, draw(rows(range(n), max_support=max_support))) for _ in range(a_count)]
             for _ in range(n)]
    m = Mdp([f"s{i}" for i in range(n)], [f"a{j}" for j in range(a_count)], delta)
    d0 = Dist(n, draw(rows(range(n), max_support=max_support)))
    t = {q for q in range(n) if draw(st.booleans())}
    return m, d0, m.support(m.states[q] for q in t)


@st.composite
def memory_strategies(draw, m, max_memory=3):
    """A randomized counting strategy with up to three memory values; rows may
    be shared between cells and may hold zero-probability actions."""
    size = draw(st.integers(1, max_memory))
    shared = draw(rows(range(m.action_count), zeros=True))

    def row():
        return shared if draw(st.booleans()) else draw(rows(range(m.action_count), zeros=True))

    forced = tuple({q: row() for q in range(m.n) if draw(st.booleans())} for _ in range(size))
    return StrategySpec("mixed", tuple(range(size)), draw(st.integers(0, size - 1)), forced,
                        row())


@given(wide_instances(), st.data(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_simulate_matches_fraction_loop(inst, data, h):
    m, d0, _ = inst
    strategy = data.draw(memory_strategies(m))
    for s in (strategy, uniform_strategy(m)):
        trace = simulate(m, s, d0, h)
        assert trace.dists == ref_simulate(m, as_tables(m, s), d0, h)
        assert (trace.strategy_label, trace.horizon) == (s.label, h)
        assert all(sum(d.mass.values()) == 1 for d in trace.dists)
        assert [list(d.mass) for d in trace.dists] == [sorted(d.mass) for d in trace.dists]


@given(wide_instances(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_dp_kernels_match_fraction_loops(inst, h):
    m, d0, t = inst
    assert max_mass_at_step(m, t, d0, h) == ref_max_mass_at_step(m, t, d0, h)
    assert max_reach_values(m, t, h) == ref_max_reach_values(m, t, h)


@given(wide_instances(max_states=3, min_actions=2, max_support=2), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_fraction_loop(inst, h):
    m, d0, _ = inst
    try:
        expected = list(ref_enumerate_pure_strategies(m, d0, h, budget=5000))
    except BudgetExceeded:
        return
    got = list(enumerate_pure_strategies(m, d0, h, budget=5000))
    assert [trace.strategy_label for trace in got] == [s.label for s, _ in expected]
    for trace, (_, dists_ref) in zip(got, expected):
        assert trace.dists == dists_ref
        assert trace.horizon == h


@given(wide_instances(max_states=4), st.integers(0, 5), st.sampled_from([0, 1, 40, 400]))
@settings(max_examples=40, deadline=None)
def test_enumeration_guards_match_fraction_loop(inst, h, budget):
    m, d0, _ = inst
    try:
        expected = sum(1 for _ in ref_enumerate_pure_strategies(m, d0, h, budget=budget))
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded, match=re.escape(str(exc))):
            next(enumerate_pure_strategies(m, d0, h, budget=budget))
        return
    assert sum(1 for _ in enumerate_pure_strategies(m, d0, h, budget=budget)) == expected


@given(wide_instances(max_states=5, max_support=2), st.data(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_integer_steps_read_as_their_dists(inst, data, h):
    # the battery reads a step as its target numerator over its total and its
    # support as a bit mask: both must say what the step's Dist says
    m, d0, t = inst
    traces = [simulate(m, data.draw(memory_strategies(m)), d0, h)]
    try:
        traces += enumerate_pure_strategies(m, d0, min(h, 3), budget=2000)
    except BudgetExceeded:
        pass
    for trace in traces:
        assert len(trace.nums) == len(trace.totals) == len(trace.dists) == trace.horizon + 1
        for nums, total, d in zip(trace.nums, trace.totals, trace.dists):
            assert all(w > 0 for w in nums.values())
            assert Fraction(_numerator_in(t, nums), total) == d.mass_in(t)
            assert _mask(nums) == d.support().bits


def test_simulate_rejects_a_step_that_does_not_sum_to_one(funnel):
    m = funnel.mdp
    leaky = StrategySpec("leaky", (0,), 0, ({},), {0: Fraction(1)})
    leaky.forced[0][m.state_index("q0")] = {0: Fraction(1, 2)}  # bypasses validation
    with pytest.raises(ValueError, match="distribution sums to 1/2"):
        simulate(m, leaky, funnel.initial, 1)
