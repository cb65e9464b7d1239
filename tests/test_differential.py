"""Differential oracles: deciders versus brute-force strategy enumeration on
tiny instances. Bounded-horizon brute force cannot settle the unbounded
questions, so both sides are compared on their bounded restrictions, at the
deepest horizon the enumeration budget admits per instance.
"""

import random

from syncmdp import (BudgetExceeded, decide_positive, decide_sure,
                     enumerate_pure_strategies, pre)
from syncmdp.randgen import random_instance

from conftest import target_masses

MAX_DEPTH = 3
BUDGET = 20000


def tiny_instances(seed, count):
    rng = random.Random(seed)
    return [random_instance(rng, max_states=3, max_actions=2) for _ in range(count)]


def brute_traces(inst):
    h = MAX_DEPTH
    while True:
        try:
            return h, list(enumerate_pure_strategies(inst.mdp, inst.initial, h,
                                                     budget=BUDGET))
        except BudgetExceeded:
            h -= 1


def test_sure_eventually_against_brute_force():
    checked = 0
    for inst in tiny_instances(99, 50):
        m, t, s0 = inst.mdp, inst.target, inst.s0
        h, traces = brute_traces(inst)
        v = decide_sure(m, "eventually", t, s0)
        witness_k = v.certificate["k"] if v.answer else None
        brute = any(any(v == 1 for v in target_masses(trace, t))
                    for trace in traces)
        # pure strategies to depth h find full synchronization iff the
        # smallest countdown witness fits within h
        assert brute == (v.answer and witness_k <= h), \
            (m.states, list(t), list(s0), v.answer, witness_k, h)
        checked += 1
    assert checked == 50


def test_sure_always_bounded_safety_against_brute_force():
    for inst in tiny_instances(111, 50):
        m, t, s0 = inst.mdp, inst.target, inst.s0
        h, traces = brute_traces(inst)
        safe = t
        for _ in range(h):
            safe = t & pre(m, safe)
        brute = any(all(v == 1 for v in target_masses(trace, t))
                    for trace in traces)
        assert brute == (s0 <= safe), (m.states, list(t), list(s0), h)


def test_positive_eventually_against_brute_force():
    for inst in tiny_instances(123, 50):
        m, t, s0 = inst.mdp, inst.target, inst.s0
        h, traces = brute_traces(inst)
        v = decide_positive(m, "eventually", t, s0)
        hit = v.certificate.get("hit_index") if v.answer else None
        brute = any(any(v > 0 for v in target_masses(trace, t))
                    for trace in traces)
        # some pure strategy hits the target within h iff uniform play does
        assert brute == (v.answer and hit <= h), \
            (m.states, list(t), list(s0), v.answer, hit, h)
