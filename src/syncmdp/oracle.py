"""Independent ground truth at desk scale: exact distribution simulation, the
finite-horizon optimum of the per-step target mass by backward induction, and
brute-force enumeration of history-dependent pure strategies.

Nothing here shares code paths with the deciders; that is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .model import BudgetExceeded, Dist, StrategySpec, ZERO


@dataclass(frozen=True)
class Trace:
    """Exact distribution sequence d_0 .. d_H under one strategy."""

    dists: tuple
    strategy_label: str
    horizon: int


@dataclass(frozen=True)
class MaxMassProfile:
    """values[i] = sup over all strategies of the target mass at exactly step i."""

    values: tuple


def simulate(m, strategy, d0, h):
    """Exact trace of length h+1; tracks the joint (memory, state) distribution."""
    if h < 0:
        raise ValueError("horizon must be nonnegative")
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
    return Trace(tuple(dists), strategy.label, h)


def max_mass_at_step(m, t, d0, h):
    """Optimal exactly-at-step-i target mass for every i <= h.

    Backward induction on w_i(q) = best probability of sitting in t after
    exactly i steps from q; history does not help for a fixed-step objective.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    w = [Fraction(1) if q in t else ZERO for q in range(m.n)]
    values = [sum((p * w[q] for q, p in d0.mass.items()), ZERO)]
    for _ in range(h):
        w = [max(sum((p * w[q2] for q2, p in m.delta[q][a].mass.items()), ZERO)
                 for a in range(m.action_count))
             for q in range(m.n)]
        values.append(sum((p * w[q] for q, p in d0.mass.items()), ZERO))
    return MaxMassProfile(tuple(values))


def max_reach_values(m, t, h):
    """Per-state optimal probability of visiting t within h steps (monotone in h)."""
    vals = [Fraction(1) if q in t else ZERO for q in range(m.n)]
    for _ in range(h):
        vals = [Fraction(1) if q in t else
                max(sum((p * vals[q2] for q2, p in m.delta[q][a].mass.items()), ZERO)
                    for a in range(m.action_count))
                for q in range(m.n)]
    return tuple(vals)


def _history_tree(m, d0, h, budget=None):
    """Decision nodes: all positive-probability histories needing an action."""
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


def enumerate_pure_strategies(m, d0, h, budget=10 ** 6):
    """Stream every history-dependent pure strategy up to horizon h with its trace.

    The budget caps the history-tree size and the total enumeration work
    (#strategies = |A|^nodes, times the tree size); exceeding it raises
    BudgetExceeded before any output so the caller can shrink the instance.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    nodes = _history_tree(m, d0, h, budget=budget)
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
        strategy = _assignment_strategy(m, assignment, rows)
        yield strategy, simulate(m, strategy, d0, h)


def _assignment_strategy(m, assignment, rows):
    """Finite-memory encoding of one pure strategy: the memory is the history."""
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
    memory = tuple(sorted(prefixes)) + (done,)
    return StrategySpec(label, memory, (), choice, update)


def count_synchronized_positions(trace, t, threshold, strict=True):
    """Indices whose target mass clears the threshold (strictly or not)."""
    threshold = Fraction(threshold)
    positions = []
    for i, d in enumerate(trace.dists):
        mass = d.mass_in(t)
        if mass > threshold or (not strict and mass == threshold):
            positions.append(i)
    return len(positions), tuple(positions)
