"""Independent ground truth at desk scale: exact distribution simulation, the
finite-horizon optimum of the per-step target mass by backward induction, and
brute-force enumeration of history-dependent pure strategies.

Nothing here shares code paths with the deciders; that is the point.

The kernels run on integer numerators over one common denominator per step
(the LCD of the transition rows, times that of the strategy's choice rows,
times that of d0), so their inner loops only multiply and add integers; a
`Fraction` is built only for each value a step emits, and every emitted
distribution is checked to sum to exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product as iproduct

from .model import ONE, BudgetExceeded, Dist, StrategySpec


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


def _numerators(rows):
    """(LCD, scaled rows): each {key: Fraction} row as {key: integer numerator}."""
    den = math.lcm(*{p.denominator for row in rows for p in row.values()})
    return den, [{k: p.numerator * (den // p.denominator) for k, p in row.items()}
                 for row in rows]


def _transition_numerators(m):
    """(LCD, rows[q][a]): the successor (state, numerator) pairs of delta(q, a)."""
    den, flat = _numerators([d.mass for row in m.delta for d in row])
    a_count = m.action_count
    return den, [[tuple(flat[q * a_count + a].items()) for a in range(a_count)]
                 for q in range(m.n)]


def simulate(m, strategy, d0, h):
    """Exact trace of length h+1; tracks the joint (memory, state) distribution."""
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    den, rows = _transition_numerators(m)
    # choice rows are routinely shared between cells: scale each object once
    distinct = list({id(row): row for row in strategy.choice.values()}.values())
    choice_den, scaled = _numerators(distinct)
    actions = {id(row): tuple((a, pa) for a, pa in nums.items() if pa)
               for row, nums in zip(distinct, scaled)}
    total, (init,) = _numerators([d0.mass])
    joint = {(strategy.initial_memory, q): w for q, w in init.items()}
    choice, update = strategy.choice, strategy.update
    step = den * choice_den
    dists = [d0]
    for _ in range(h):
        nxt = {}
        for key, w in joint.items():
            mem2 = update[key]
            succ = rows[key[1]]
            for a, pa in actions[id(choice[key])]:
                wa = w * pa
                for q2, p in succ[a]:
                    key2 = (mem2, q2)
                    nxt[key2] = nxt.get(key2, 0) + wa * p
        joint = nxt
        total *= step
        mass = {}
        for (_, q), w in joint.items():
            mass[q] = mass.get(q, 0) + w
        dists.append(Dist._from_numerators(m.n, mass, total))
    return Trace(tuple(dists), strategy.label, h)


def max_mass_at_step(m, t, d0, h):
    """Optimal exactly-at-step-i target mass for every i <= h.

    Backward induction on w_i(q) = best probability of sitting in t after
    exactly i steps from q; history does not help for a fixed-step objective.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    den, rows = _transition_numerators(m)
    total, (init,) = _numerators([d0.mass])
    w = [1 if q in t else 0 for q in range(m.n)]
    values = [Fraction(sum(p * w[q] for q, p in init.items()), total)]
    for _ in range(h):
        w = [max(sum(p * w[q2] for q2, p in succ) for succ in rows[q]) for q in range(m.n)]
        total *= den
        values.append(Fraction(sum(p * w[q] for q, p in init.items()), total))
    return MaxMassProfile(tuple(values))


def max_reach_values(m, t, h):
    """Per-state optimal probability of visiting t within h steps (monotone in h)."""
    den, rows = _transition_numerators(m)
    total = 1
    vals = [1 if q in t else 0 for q in range(m.n)]
    for _ in range(h):
        total *= den
        vals = [total if q in t else
                max(sum(p * vals[q2] for q2, p in succ) for succ in rows[q])
                for q in range(m.n)]
    return tuple(Fraction(v, total) for v in vals)


def _history_tree_size(m, d0, h, budget):
    """Number of decision nodes (positive-probability histories needing an
    action), counted per last state level by level without building them."""
    counts = dict.fromkeys(d0.mass, 1)
    size = 0
    for _ in range(h):
        size += sum(counts.values())
        if size > budget:
            raise BudgetExceeded("strategy-enumeration",
                                 f"history tree exceeds {budget} nodes")
        nxt = {}
        for q, c in counts.items():
            for d in m.delta[q]:
                for q2 in d.mass:
                    nxt[q2] = nxt.get(q2, 0) + c
        counts = nxt
    return size


def _history_levels(m, d0, h):
    """The decision nodes by depth, each level in (history, action, successor) order."""
    levels = [[(q,) for q in sorted(d0.mass)]] if h else []
    while len(levels) < h:
        levels.append([hist + (a, q2) for hist in levels[-1] for a in range(m.action_count)
                       for q2 in sorted(m.delta[hist[-1]][a].mass)])
    return levels


def enumerate_pure_strategies(m, d0, h, budget=10 ** 6):
    """Stream every history-dependent pure strategy up to horizon h with its trace.

    The budget caps the history-tree size and the total enumeration work
    (#strategies = |A|^nodes, times the tree size); exceeding it raises
    BudgetExceeded before any output so the caller can shrink the instance.
    Strategies come in the order of their actions at the decision nodes
    (depth-major, the last node fastest); one walk over the history tree
    shares each prefix's distribution among the strategies agreeing on it.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    count = _history_tree_size(m, d0, h, budget)
    a_count = m.action_count
    if budget < 1 or a_count > 1 and count * math.log2(a_count) \
            + math.log2(max(count, 1)) > math.log2(budget):
        raise BudgetExceeded("strategy-enumeration",
                             f"{a_count}^{count} strategies exceed budget {budget}")
    levels = _history_levels(m, d0, h)
    strategy = _pure_strategy_encoder(m, [hist for level in levels for hist in level])
    states = [[hist[-1] for hist in level] for level in levels]
    den, rows = _transition_numerators(m)
    # the children of node j of a level under action a are consecutive in the
    # next level, from first[depth][j] + offset[q][a] on, one per successor
    offset = [list(accumulate(map(len, row), initial=0)) for row in rows]
    first = [list(accumulate((offset[q][-1] for q in level), initial=0)) for level in states]

    def walk(depth, mass, total, picks, dists):
        """(picks, trace dists) of every pick sequence from this depth on, given
        the integer masses (over `total`) of the live histories at this depth."""
        if depth == h:
            yield picks, dists
            return
        level = states[depth]
        deeper = depth + 1 < h
        total *= den
        for level_picks in iproduct(range(a_count), repeat=len(level)):
            nxt = {}
            marginal = {}
            for j, w in mass.items():
                q, a = level[j], level_picks[j]
                for c, (q2, p) in enumerate(rows[q][a], first[depth][j] + offset[q][a]):
                    v = w * p
                    if deeper:
                        nxt[c] = v
                    marginal[q2] = marginal.get(q2, 0) + v
            d = Dist._from_numerators(m.n, marginal, total)
            yield from walk(depth + 1, nxt, total, picks + level_picks, dists + (d,))

    total, (init,) = _numerators([d0.mass])
    root = {j: init[q] for j, q in enumerate(states[0])} if h else {}
    for picks, dists in walk(0, root, total, (), (d0,)):
        spec = strategy(picks)
        yield spec, Trace(dists, spec.label, h)


def _pure_strategy_encoder(m, nodes):
    """Finite-memory encoding of a pure strategy from its actions at `nodes`:
    the memory is the history so far, and play off the tree is uniform."""
    a_count = m.action_count
    share = Fraction(1, a_count)
    uniform = {a: share for a in range(a_count)}
    dirac = [{a: ONE} for a in range(a_count)]
    done = "done"
    prefixes = {()}
    for hist in nodes:
        prefixes.add(hist[:-1])
    position = {hist: j for j, hist in enumerate(nodes)}
    keys = [None] * len(nodes)            # node j's cell, shared with the tables
    succ = [done] * (len(nodes) * a_count)  # memory after node j plays a
    choice = {}
    update = {}
    for prefix in prefixes:
        if prefix:
            succ[position[prefix[:-1]] * a_count + prefix[-1]] = prefix
        for q in range(m.n):
            key = (prefix, q)
            choice[key] = uniform
            update[key] = done
            j = position.get(prefix + (q,))
            if j is not None:
                keys[j] = key
    for q in range(m.n):
        choice[(done, q)] = uniform
        update[(done, q)] = done
    memory = tuple(sorted(prefixes)) + (done,)

    def encode(picks):
        c = dict(choice)
        u = dict(update)
        for j, (key, a) in enumerate(zip(keys, picks)):
            c[key] = dirac[a]
            u[key] = succ[j * a_count + a]
        label = "pure[" + ",".join(map(str, picks)) + "]"
        return StrategySpec(label, memory, (), c, u)
    return encode


def count_synchronized_positions(trace, t, threshold, strict=True):
    """Indices whose target mass clears the threshold (strictly or not)."""
    threshold = Fraction(threshold)
    positions = []
    for i, d in enumerate(trace.dists):
        mass = d.mass_in(t)
        if mass > threshold or (not strict and mass == threshold):
            positions.append(i)
    return len(positions), tuple(positions)
