"""Independent ground truth at desk scale: exact distribution simulation, the
finite-horizon optimum of the per-step target mass by backward induction, and
the traces of all history-dependent pure strategies, by brute-force
enumeration.

Nothing here shares code paths with the deciders, nor do the battery's mask
certificates (`checks._safe_reach`, `checks._certified`).

The kernels run on integer numerators over one common denominator per step
(the LCD of the transition rows, times that of the strategy's choice rows,
times that of d0), so their inner loops only multiply and add integers;
`simulate` merges each action row at a state into one successor row first, so
a step is one multiply-add per (state, successor). A trace is those integers:
step i is {q: numerator} over the total `totals[i]`, checked to sum to exactly
it; the step profile's step i is the optimal target numerator over its total.
The battery reads them as integers and builds a `Fraction` only for a value it
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product as iproduct, repeat
from operator import mul

from .model import BudgetExceeded, format_rational


@dataclass(frozen=True)
class Trace:
    """Exact distribution sequence d_0 .. d_H under one strategy, in integers:
    d_i(q) = nums[i][q] / totals[i], with only positive numerators stored."""

    nums: tuple
    totals: tuple
    strategy_label: str
    horizon: int

    def cut(self, h):
        """This trace's first h + 1 steps (the same step dicts)."""
        return Trace(self.nums[:h + 1], self.totals[:h + 1], self.strategy_label, h)


def _checked(nums, total):
    """The step `nums`, once its numerators are found to sum to exactly `total`."""
    mass_sum = sum(nums.values())
    if mass_sum != total:
        raise ValueError(f"distribution sums to {format_rational(Fraction(mass_sum, total))}")
    return nums


def _numerator_in(t, nums):
    """The numerator (over its step's total) of the mass a step puts in the set t."""
    bits = t.bits
    return sum(w for q, w in nums.items() if bits >> q & 1)


def _clears(v, total, threshold, strict=True):
    """v / total > threshold (>= when not strict), by integer cross-multiplication."""
    lhs, rhs = v * threshold.denominator, threshold.numerator * total
    return lhs > rhs or not strict and lhs == rhs


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
    """Exact trace of length h+1 under a counting strategy: the state distribution
    is all there is to track, and the strategy's position moves by `next(j)`.

    A state q under an action row steps by one merged row, built on first use:
    each successor q2 once, in the order it first comes (by action, then
    successor), with the numerator sum over the row's actions of p_a * p."""
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    den, rows = _transition_numerators(m)
    distinct = strategy.rows()   # scale each shared row object once
    choice_den, scaled = _numerators(distinct)
    actions = {id(row): tuple((a, pa) for a, pa in nums.items() if pa)
               for row, nums in zip(distinct, scaled)}
    merged = {key: [None] * m.n for key in actions}

    def merge(key, q):
        succ, out = rows[q], {}
        for a, pa in actions[key]:
            for q2, p in succ[a]:
                out[q2] = out.get(q2, 0) + pa * p
        merged[key][q] = out = tuple(out.items())
        return out

    total, (dist,) = _numerators([d0.mass])
    default = strategy.default
    step = den * choice_den
    nums, totals = [dist], [total]
    j = 0
    for _ in range(h):
        forced = strategy.forced[j]
        nxt = {}
        for q, w in dist.items():
            key = id(forced.get(q, default))
            for q2, p in merged[key][q] or merge(key, q):
                nxt[q2] = nxt.get(q2, 0) + w * p
        dist = nxt
        j = strategy.next(j)
        total *= step
        nums.append(_checked(dist, total))
        totals.append(total)
    return Trace(tuple(nums), tuple(totals), strategy.label, h)


def max_mass_at_step(m, t, d0, h):
    """(target numerator, total) of the optimal exactly-at-step-i mass, for each i <= h.

    Backward induction on w_i(q) = best probability of sitting in t after
    exactly i steps from q; history does not help for a fixed-step objective.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    den, rows = _transition_numerators(m)
    total, (init,) = _numerators([d0.mass])
    w = [1 if q in t else 0 for q in range(m.n)]
    values = [(sum(p * w[q] for q, p in init.items()), total)]
    for _ in range(h):
        w = [max(sum(p * w[q2] for q2, p in succ) for succ in rows[q]) for q in range(m.n)]
        total *= den
        values.append((sum(p * w[q] for q, p in init.items()), total))
    return tuple(values)


def _tree_sizes(m, d0, budget):
    """The history tree's node count at horizon h = 0, 1, 2, ..., up to the first
    count past the budget. Depth i holds one node per positive-probability
    history q_0 a_0 ... q_i, and a node ending in q has one child per action a
    and successor of delta(q, a); the nodes are counted per end state."""
    fan = [[q2 for d in row for q2 in d.mass] for row in m.delta]
    level = dict.fromkeys(d0.mass, 1)
    count = 0
    while True:
        yield count
        if count > budget:
            return
        count += sum(level.values())
        nxt = {}
        for q, c in level.items():
            for q2 in fan[q]:
                nxt[q2] = nxt.get(q2, 0) + c
        level = nxt


def _budget_error(count, a_count, budget):
    """The BudgetExceeded of enumerating over a history tree of `count` nodes, or
    None: the tree, and the |A|^count strategies times the tree, must fit the budget."""
    if count > budget:
        return BudgetExceeded("strategy-enumeration", f"history tree exceeds {budget} nodes")
    if budget < 1 or a_count > 1 and count * math.log2(a_count) \
            + math.log2(max(count, 1)) > math.log2(budget):
        return BudgetExceeded("strategy-enumeration",
                              f"{a_count}^{count} strategies exceed budget {budget}")
    return None


def enumeration_depth(m, d0, max_depth, budget):
    """The deepest horizon h <= max_depth that `enumerate_pure_strategies` admits
    under the budget, or None. The tree and the strategy count only grow with h,
    so the node counts are walked upward to the first horizon over the budget."""
    depth = None
    for h, count in zip(range(max_depth + 1), _tree_sizes(m, d0, budget)):
        if _budget_error(count, m.action_count, budget):
            break
        depth = h
    return depth


def enumerate_pure_strategies(m, d0, h, budget=10 ** 6):
    """Stream the trace of every history-dependent pure strategy up to horizon h.

    A decision node is a positive-probability history q_0 a_0 q_1 ... q_i with
    i < h, which needs an action. The nodes are taken depth-major: depth 0 is
    Supp(d0) in state order, and depth i + 1 lists, for each node of depth i
    in turn, its children by action and then by successor state. A strategy is
    its actions at the nodes in that order, labelled `pure[a,b,...]` by them,
    and strategies come in the lexicographic order of their actions (the last
    node fastest).

    The budget caps the history-tree size and the total enumeration work
    (#strategies = |A|^nodes, times the tree size); exceeding it raises
    BudgetExceeded before any output so the caller can shrink the instance
    (`enumeration_depth` applies the same rule). One walk over the history
    tree shares each prefix's step dicts among the strategies agreeing on it,
    and all traces share one `totals` tuple.
    """
    if h < 0:
        raise ValueError("horizon must be nonnegative")
    for count in islice(_tree_sizes(m, d0, budget), h + 1):
        pass   # the count at horizon h, or the first past the budget
    error = _budget_error(count, m.action_count, budget)
    if error:
        raise error
    den, rows = _transition_numerators(m)
    # the children of node j of a level under action a are consecutive in the
    # next level, from first[depth][j] + offset[q][a] on, one per successor
    offset = [list(accumulate(map(len, row), initial=0)) for row in rows]
    states = []
    first = []
    level = sorted(d0.mass)
    for depth in range(h):
        states.append(level)
        first.append(list(accumulate((offset[q][-1] for q in level), initial=0)))
        if depth + 1 < h:
            level = [q2 for q in level for row in rows[q] for q2, _ in row]
    a_count = m.action_count

    def children(depth, mass, picks, steps):
        """The child nodes (mass, picks, steps), one per pick sequence of this
        depth, from the integer masses (over totals[depth]) of its live histories."""
        level = states[depth]
        deeper = depth + 1 < h
        total = totals[depth + 1]
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
            yield nxt, picks + level_picks, steps + (_checked(marginal, total),)

    total, (init,) = _numerators([d0.mass])
    totals = tuple(accumulate(repeat(den, h), mul, initial=total))
    root = {j: init[q] for j, q in enumerate(states[0])} if h else {}
    # depth first without recursion: stack[i] yields the nodes of depth i
    stack = [iter([(root, (), (init,))])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) > h:
            _, picks, steps = node
            yield Trace(steps, totals, "pure[" + ",".join(map(str, picks)) + "]", h)
        else:
            stack.append(children(len(stack) - 1, *node))

