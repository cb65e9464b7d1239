"""Support-set fixpoints: predecessor operators, winning regions for safety and
reachability, and maximal end-component decomposition.

All routines are pure functions over a support skeleton (model.Skeleton; an
Mdp is one). Sets are SupportSet bit vectors outside and raw bit masks inside,
and every fixpoint is iterated to exact stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .model import GuardExceeded, SupportSet, _iter_bits


def _width_check(m, s):
    if s.width != m.n:
        raise ValueError("support-set width does not match the MDP")
    return s.bits


def _apre(succ, y, x=-1):
    """Mask of the states with an action keeping all successors in y and hitting x;
    every action hits the default x = -1 (all bits), which makes it Pre(y)."""
    bits = 0
    for q, row in enumerate(succ):
        for s in row:
            if s & y == s and s & x:
                bits |= 1 << q
                break
    return bits


def pre(m, y):
    """States with an action whose whole successor support lies inside `y`."""
    return SupportSet(m.n, _apre(m.succ, _width_check(m, y)))


class PreMap(dict):
    """bits -> Pre(bits) over one skeleton, each entry computed on first lookup."""

    def __init__(self, m):
        self.succ = m.succ

    def __missing__(self, bits):
        self[bits] = nxt = _apre(self.succ, bits)
        return nxt


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic support sequence s_0, s_1 = step(s_0), ...

    supports[i] is s_i for i <= start + period; the last entry repeats
    supports[start] and closes the lasso.
    """

    supports: tuple
    start: int    # first index whose support recurs
    period: int   # >= 1: distance to the recurrence

    def distinct(self):
        """All pairwise-distinct supports (everything before the closing repeat)."""
        return self.supports[:-1]

    def loop(self):
        return self.supports[self.start:self.start + self.period]

    def at(self, i):
        """Support at an arbitrary iteration index i >= 0."""
        if i < len(self.supports):
            return self.supports[i]
        return self.supports[self.start + (i - self.start) % self.period]


def iterate_lasso(step, start, max_len, stage):
    """Iterate `step` from `start` until the first repeated support.

    More than `max_len` distinct supports (when not None) trips the guard of `stage`.
    """
    seen = {}   # support -> index, in iteration order
    cur = start
    while cur not in seen:
        if max_len is not None and len(seen) >= max_len:
            raise GuardExceeded(stage, f"no repetition within {max_len} supports")
        seen[cur] = len(seen)
        cur = step(cur)
    k = seen[cur]
    return Lasso((*seen, cur), k, len(seen) - k)


def pre_lasso(m, t, max_len=None, pre_map=None):
    """The iterated-predecessor lasso of a target set, stepping through `pre_map`
    (a PreMap of `m`; a fresh one when None)."""
    step = (PreMap(m) if pre_map is None else pre_map).__getitem__
    bits = iterate_lasso(step, _width_check(m, t), max_len, "pre-lasso")
    return Lasso(tuple(SupportSet(m.n, b) for b in bits.supports), bits.start, bits.period)


def sure_safety_region(m, t):
    """Largest set the controller can keep all mass inside `t` from, forever."""
    tbits = _width_check(m, t)
    y = (1 << m.n) - 1
    while (nxt := tbits & _apre(m.succ, y)) != y:
        y = nxt
    return SupportSet(m.n, y)


def reach_layers(m, s):
    """Increasing attractor layers for forced reachability of `s`."""
    layers = [s]
    while (nxt := s | pre(m, layers[-1])) != layers[-1]:
        layers.append(nxt)
    return layers


def sure_reach_region(m, s):
    """States from which some strategy forces every compatible path into `s`."""
    return reach_layers(m, s)[-1]


def almost_sure_reach_region(m, t):
    """States almost-sure winning for reaching `t`: nu Y. mu X. t u APre(Y, X)."""
    tbits = _width_check(m, t)
    y = (1 << m.n) - 1
    while True:
        x = 0
        while (nxt := tbits | _apre(m.succ, y, x)) != x:
            x = nxt
        if x == y:
            return SupportSet(m.n, y)
        y = x


def _closure(start, step):
    """Smallest bit mask containing `start` and closed under q -> step[q]."""
    seen = frontier = start
    while frontier:
        frontier = reduce(or_, (step[q] for q in _iter_bits(frontier)), 0) & ~seen
        seen |= frontier
    return seen


def _sccs(nodes, succ):
    """Strongly connected components (bit masks) of the graph q -> succ[q] on
    `nodes`: the component of q is what q reaches and what reaches q back."""
    pred = {q: sum(1 << p for p, out in succ.items() if out >> q & 1) for q in succ}
    comps = []
    while nodes:
        start = nodes & -nodes
        comps.append(_closure(start, succ) & _closure(start, pred))
        nodes &= ~comps[-1]
    return comps


@dataclass(frozen=True)
class EcDecomposition:
    """Maximal end components, their union, and the per-state internal actions."""

    components: tuple          # disjoint SupportSets, ordered by smallest member
    union: SupportSet
    internal_actions: tuple    # state -> actions staying inside its component


def mec_decomposition(m):
    """All maximal end components by iterative SCC refinement."""
    work = [(1 << m.n) - 1]
    found = []
    while work:
        sbits = work.pop()
        inside, succ, bad = {}, {}, 0
        for q in _iter_bits(sbits):
            inside[q] = [a for a, s in enumerate(m.succ[q]) if s & ~sbits == 0]
            succ[q] = reduce(or_, (m.succ[q][a] for a in inside[q]), 0)
            if not inside[q]:
                bad |= 1 << q
        if bad:
            if sbits != bad:
                work.append(sbits & ~bad)
            continue
        comps = _sccs(sbits, succ)
        if len(comps) == 1:
            found.append((sbits, inside))
        else:
            work.extend(comps)

    found.sort(key=lambda pair: pair[0] & -pair[0])   # by smallest member
    internal = [None] * m.n
    for sbits, inside in found:
        for q in _iter_bits(sbits):
            internal[q] = tuple(inside[q])
    return EcDecomposition(tuple(SupportSet(m.n, sbits) for sbits, _ in found),
                           SupportSet(m.n, reduce(or_, (sbits for sbits, _ in found), 0)),
                           tuple(internal))
