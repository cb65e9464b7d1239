import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (BudgetExceeded, Dist, GuardExceeded, StrategySpec, Trace, analyze, checks,
                     enumerate_pure_strategies, freezing_strategy, max_mass_at_step, simulate,
                     uniform_strategy)
from syncmdp.checks import _mask, run_checks
from syncmdp.model import ZERO
from syncmdp.oracle import _clears, _numerator_in, _numerators
from syncmdp.randgen import corpus, random_instance

from conftest import (ABSORBING, CHAIN, as_dists, as_fractions, build, mass_in, rows, support,
                      synchronized_positions, target_masses, wide_instances)


def hold_strategy(m, plan):
    """Memoryless strategy playing a fixed action per state (dict by name)."""
    forced = {m.states.index(name): {m.actions.index(a): Fraction(1)}
              for name, a in plan.items()}
    return StrategySpec("hold", (0,), 0, (forced,), uniform_strategy(m).default)


def switch_strategy(m, state, first, then, at):
    """Plays `first` at `state` before step `at`, `then` afterwards."""
    q = m.states.index(state)
    before = {q: {m.actions.index(first): Fraction(1)}}
    after = {q: {m.actions.index(then): Fraction(1)}}
    return StrategySpec(f"switch@{at}", tuple(range(at + 1)), at, (before,) * at + (after,),
                        uniform_strategy(m).default)


def test_simulate_drain_geometric(drain):
    m = drain.mdp
    trace = simulate(m, uniform_strategy(m), drain.initial, 3)
    for i, d in enumerate(as_dists(trace, m.n)):
        assert d.mass.get(m.states.index("q0"), 0) == Fraction(1, 2) ** i


def test_simulate_loopback_hold_a(loopback):
    m = loopback.mdp
    trace = simulate(m, hold_strategy(m, {"q1": "a"}), loopback.initial, 6)
    q1 = m.states.index("q1")
    for k, d in enumerate(as_dists(trace, m.n)):
        assert d.mass.get(q1, 0) == 1 - Fraction(1, 2) ** k


def test_simulate_absorbing_constant():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 5)
    assert all(d == pm.initial for d in as_dists(trace, pm.mdp.n))


def test_simulate_masses_exact(funnel):
    m = funnel.mdp
    trace = simulate(m, uniform_strategy(m), funnel.initial, 20)
    for nums, total in zip(trace.nums, trace.totals):
        assert sum(nums.values()) == total


def test_max_mass_funnel(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    profile = as_fractions(max_mass_at_step(m, t, funnel.initial, 10))
    assert profile[0] == 0
    for i in range(1, 11):
        assert profile[i] == 1 - Fraction(1, 2) ** (i - 1)


def test_max_mass_twophase_half(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    half = Fraction(1, 2)
    d0 = Dist(m.n, {m.states.index("q1"): half, m.states.index("q3"): half})
    profile = as_fractions(max_mass_at_step(m, t, d0, 50))
    assert all(v == Fraction(1, 2) for v in profile)


def test_max_mass_full_target(funnel):
    m = funnel.mdp
    profile = as_fractions(max_mass_at_step(m, support(m, m.states), funnel.initial, 5))
    assert all(v == 1 for v in profile)


def test_simulation_never_beats_dp(funnel, loopback):
    for pm in (funnel, loopback):
        m, t = pm.mdp, pm.targets["target"]
        profile = as_fractions(max_mass_at_step(m, t, pm.initial, 25))
        for strategy in (uniform_strategy(m), hold_strategy(m, {"q1": "b"})):
            trace = simulate(m, strategy, pm.initial, 25)
            for v, best in zip(target_masses(trace, t), profile, strict=True):
                assert v <= best


def test_enumerate_single_action_chain(twophase):
    out = list(enumerate_pure_strategies(twophase.mdp, twophase.initial, 3))
    assert len(out) == 1


def test_enumerate_funnel_depth_two(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    out = list(enumerate_pure_strategies(m, funnel.initial, 2))
    assert len(out) == 32  # |A|^(1 + |A|*|supp(q0)|) decision histories
    for trace in out:
        assert all(v <= Fraction(1, 2) for v in target_masses(trace, t))
    labels = {trace.strategy_label for trace in out}
    assert len(labels) == 32
    assert out[0].strategy_label == "pure[0,0,0,0,0]"
    assert out[-1].strategy_label == "pure[1,1,1,1,1]"
    # each history prefix's step dict is one object for all the strategies
    # that agree on it: 1 initial + 2 after the root's pick + 32 leaves
    slots = [nums for trace in out for nums in trace.nums]
    assert len(slots) == 96 and len({id(nums) for nums in slots}) == 35
    assert out[0].nums[1] is out[1].nums[1]


def test_enumerate_walks_deeper_than_the_recursion_limit():
    pm = build(CHAIN)
    h = sys.getrecursionlimit() + 200
    (trace,) = enumerate_pure_strategies(pm.mdp, pm.initial, h)
    assert trace.strategy_label == "pure[" + ",".join(["0"] * h) + "]"
    assert len(trace.nums) == h + 1 and trace.nums[-1] == {1: 1}


def test_enumerate_budget_guard(funnel):
    gen = enumerate_pure_strategies(funnel.mdp, funnel.initial, 2, budget=10)
    with pytest.raises(BudgetExceeded):
        next(gen)


def test_max_mass_profile_is_integers_over_step_totals(funnel):
    # step i is (target numerator, total) with total = total_0 * den^i, like a
    # trace's steps: the DP builds no Fraction
    m, t = funnel.mdp, funnel.targets["target"]
    profile = max_mass_at_step(m, t, funnel.initial, 10)
    assert all(type(v) is int and type(total) is int for v, total in profile)
    totals = [total for _, total in profile]
    assert totals == [totals[0] * (totals[1] // totals[0]) ** i for i in range(11)]


def cleared_positions(trace, t, threshold, strict=True):
    """The steps of a trace the sync-count caps count: its target numerator over
    its total clears the threshold by the battery's integer test, which must
    agree with the `Fraction` reference."""
    positions = tuple(i for i, (nums, total) in enumerate(zip(trace.nums, trace.totals))
                      if _clears(_numerator_in(t, nums), total, Fraction(threshold), strict))
    assert positions == synchronized_positions(trace, t, threshold, strict)
    return positions


def test_count_positions_funnel_switch(funnel):
    m, t = funnel.mdp, funnel.targets["target"]
    trace = simulate(m, switch_strategy(m, "q1", "a", "b", 3), funnel.initial, 8)
    assert target_masses(trace, t)[4] == Fraction(7, 8)
    assert cleared_positions(trace, t, Fraction(3, 4)) == (4,)


def test_count_positions_twophase_never_exceeds_half(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    trace = simulate(m, uniform_strategy(m), twophase.initial, 30)
    assert cleared_positions(trace, t, Fraction(1, 2)) == ()  # exactly one half forever


def test_count_positions_constant_trace():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 4)
    assert cleared_positions(trace, pm.targets["target"], Fraction(9, 10)) == (0, 1, 2, 3, 4)


def test_count_positions_strict_flag():
    pm = build(ABSORBING)
    trace = simulate(pm.mdp, uniform_strategy(pm.mdp), pm.initial, 2)
    assert cleared_positions(trace, pm.targets["target"], 1) == ()
    assert cleared_positions(trace, pm.targets["target"], 1, strict=False) == (0, 1, 2)


# --- the integer kernels against the Fraction loops they replaced ---------------
#
# The reference functions below are the oracle's former Fraction loops, kept
# verbatim apart from their names: the integer kernels must give equal traces,
# profile values, and the same enumeration in the same order.
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
        assert as_dists(trace, m.n) == ref_simulate(m, as_tables(m, s), d0, h)
        assert (trace.strategy_label, trace.horizon) == (s.label, h)
        assert all(sum(nums.values()) == total for nums, total in zip(trace.nums, trace.totals))
        assert all(w > 0 for nums in trace.nums for w in nums.values())


@given(wide_instances(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_dp_kernels_match_fraction_loops(inst, h):
    m, d0, t = inst
    assert as_fractions(max_mass_at_step(m, t, d0, h)) == ref_max_mass_at_step(m, t, d0, h)


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
        assert as_dists(trace, m.n) == dists_ref
        assert trace.horizon == h


@given(wide_instances(max_states=3, min_actions=2, max_support=2), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_enumeration_is_the_full_one_filtered(inst, h, data):
    # keep is a random threshold on the target numerator over its total, one
    # of the masses the traces reach or 2, which rejects the root: the pruned
    # enumeration yields exactly the traces whose every step passes, in order
    m, d0, t = inst
    try:
        expected = list(ref_enumerate_pure_strategies(m, d0, h, budget=5000))
    except BudgetExceeded:
        return
    masses = sorted({mass_in(d, t) for _, dists in expected for d in dists})
    threshold = data.draw(st.sampled_from([*masses, Fraction(2)]))
    strict = data.draw(st.booleans())

    def passes(mass):
        return mass > threshold or not strict and mass == threshold

    def keep(nums, total):
        return passes(Fraction(_numerator_in(t, nums), total))
    got = list(enumerate_pure_strategies(m, d0, h, budget=5000, keep=keep))
    kept = [(s.label, dists) for s, dists in expected
            if all(passes(mass_in(d, t)) for d in dists)]
    assert [(trace.strategy_label, as_dists(trace, m.n)) for trace in got] == kept
    full = list(enumerate_pure_strategies(m, d0, h, budget=5000))
    assert got == [trace for trace in full
                   if all(keep(nums, total) for nums, total in zip(trace.nums, trace.totals))]
    if threshold > 1:
        assert got == []
    # a predicate failing only its first call, the root, expands nothing
    calls = []
    assert list(enumerate_pure_strategies(m, d0, h, budget=5000,
                                          keep=lambda nums, total: bool(calls.append(0))
                                          or len(calls) > 1)) == []
    assert len(calls) == 1


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
    # support as a bit mask: both must say what the reference loops' Dist says
    m, d0, t = inst
    strategy = data.draw(memory_strategies(m))
    pairs = [(simulate(m, strategy, d0, h), ref_simulate(m, as_tables(m, strategy), d0, h))]
    depth = min(h, 3)
    try:
        expected = [dists for _, dists in ref_enumerate_pure_strategies(m, d0, depth, 2000)]
    except BudgetExceeded:
        expected = []
    else:
        pairs += zip(enumerate_pure_strategies(m, d0, depth, budget=2000), expected,
                     strict=True)
    for trace, ref in pairs:
        assert len(trace.nums) == len(trace.totals) == len(ref) == trace.horizon + 1
        for nums, total, d in zip(trace.nums, trace.totals, ref):
            assert all(w > 0 for w in nums.values())
            assert Fraction(_numerator_in(t, nums), total) == mass_in(d, t)
            assert _mask(nums) == d.support().bits


def per_action_simulate(m, strategy, d0, h):
    """Reference: `simulate`'s kernel before each row's actions were merged, one
    multiply-add per (state, action, successor) and step. Returns the steps'
    numerator dicts and totals."""
    den, succ_rows = m.transition_numerators
    distinct = strategy.rows()
    choice_den, scaled = _numerators(distinct)
    actions = {id(row): tuple((a, pa) for a, pa in nums.items() if pa)
               for row, nums in zip(distinct, scaled)}
    total, (dist,) = _numerators([d0.mass])
    step = den * choice_den
    nums, totals = [dist], [total]
    j = 0
    for _ in range(h):
        forced = strategy.forced[j]
        nxt = {}
        for q, w in dist.items():
            succ = succ_rows[q]
            for a, pa in actions[id(forced.get(q, strategy.default))]:
                wa = w * pa
                for q2, p in succ[a]:
                    nxt[q2] = nxt.get(q2, 0) + wa * p
        dist = nxt
        j = strategy.next(j)
        total *= step
        nums.append(dist)
        totals.append(total)
    return nums, totals


@given(wide_instances(), st.data(), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_merged_rows_simulate_like_the_per_action_kernel(inst, data, h):
    # the same integers in every step dict, in the same key order, over the
    # same totals: uniform play, freezing play (forced rows at its switch), the
    # analysis's witnesses and a random counting strategy
    m, d0, t = inst
    try:
        an = analyze(m, d0, t)
    except GuardExceeded:
        an = None
    strategies = [uniform_strategy(m), data.draw(memory_strategies(m))]
    # freezing-shaped: one {} shared by every position before the switch
    switch = data.draw(st.integers(0, 4))
    frozen = data.draw(memory_strategies(m, max_memory=1)).forced[0]
    strategies.append(StrategySpec("frozen", tuple(range(switch + 1)), switch,
                                   ({},) * switch + (frozen,), uniform_strategy(m).default))
    if an is not None:
        strategies.append(freezing_strategy(m, an.lasso, an.mec))
        strategies += [v.witness for v in an.verdicts.values() if v.witness is not None]
    for s in strategies:
        trace = simulate(m, s, d0, h)
        nums, totals = per_action_simulate(m, s, d0, h)
        assert [list(step.items()) for step in trace.nums] == [list(step.items()) for step in nums]
        assert list(trace.totals) == totals


def test_simulate_rejects_a_step_that_does_not_sum_to_one(funnel):
    m = funnel.mdp
    leaky = StrategySpec("leaky", (0,), 0, ({},), {0: Fraction(1)})
    leaky.forced[0][m.states.index("q0")] = {0: Fraction(1, 2)}  # bypasses validation
    with pytest.raises(ValueError, match="distribution sums to 1/2"):
        simulate(m, leaky, funnel.initial, 1)
    # a leak at forced position 2 of three, the loop back to position 1: the
    # steps up to position 2 sum to one, the step after it does not
    late = StrategySpec("late", (0, 1, 2), 1, ({}, {}, {}), {0: Fraction(1)})
    late.forced[2].update({q: {0: Fraction(1, 2)} for q in range(m.n)})
    assert len(simulate(m, late, funnel.initial, 2).nums) == 3
    with pytest.raises(ValueError, match="distribution sums to 1/2"):
        simulate(m, late, funnel.initial, 3)


def generator_max_mass_at_step(m, t, d0, h):
    """Reference: `max_mass_at_step`'s kernel with its sums and maxima as nested
    generators, before they became loops."""
    den, rows = m.transition_numerators
    total, (init,) = _numerators([d0.mass])
    w = [1 if q in t else 0 for q in range(m.n)]
    values = [(sum(p * w[q] for q, p in init.items()), total)]
    for _ in range(h):
        w = [max(sum(p * w[q2] for q2, p in succ) for succ in rows[q]) for q in range(m.n)]
        total *= den
        values.append((sum(p * w[q] for q, p in init.items()), total))
    return tuple(values)


def _battery_instances():
    """corpus 20260810[:40] and the first eight models of the acceptance wide
    tier (n = 6, up to three actions, denominators <= 8)."""
    rng = random.Random(20261018)
    wide = [random_instance(rng, n=6, max_actions=3, max_denominator=8) for _ in range(8)]
    return corpus(20260810, 40) + wide


def test_battery_reads_the_kernels_like_their_references(monkeypatch):
    # the same results, names, statuses and infos when the battery reads the
    # per-action simulation and the generator-form step profile instead
    analyses = []
    for inst in _battery_instances():
        try:
            analyses.append(analyze(inst.mdp, inst.initial, inst.target))
        except GuardExceeded:
            pass
    got = [run_checks(an) for an in analyses]
    monkeypatch.setattr(checks, "simulate", lambda m, s, d0, h: Trace(
        *map(tuple, per_action_simulate(m, s, d0, h)), s.label, h))
    monkeypatch.setattr(checks, "max_mass_at_step", generator_max_mass_at_step)
    assert got == [run_checks(an) for an in analyses]
    assert len(analyses) > 40
