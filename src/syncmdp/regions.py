"""Support-set fixpoints: predecessor operators, winning regions for safety and
reachability, and maximal end-component decomposition.

All routines are pure functions over an immutable Mdp; sets are SupportSet bit
vectors and every fixpoint is iterated to exact stabilization.
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


def pre(m, y):
    """States with an action whose whole successor support lies inside `y`."""
    ybits = _width_check(m, y)
    bits = 0
    for q, row in enumerate(m.succ):
        for s in row:
            if s & ybits == s:
                bits |= 1 << q
                break
    return SupportSet(m.n, bits)


def apre(m, y, x):
    """States with an action keeping all successors in `y` and hitting `x`."""
    ybits = _width_check(m, y)
    xbits = _width_check(m, x)
    bits = 0
    for q, row in enumerate(m.succ):
        for s in row:
            if s & ybits == s and s & xbits:
                bits |= 1 << q
                break
    return SupportSet(m.n, bits)


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
    seen = {}
    sups = []
    cur = start
    while cur not in seen:
        if max_len is not None and len(sups) >= max_len:
            raise GuardExceeded(stage, f"no repetition within {max_len} supports")
        seen[cur] = len(sups)
        sups.append(cur)
        cur = step(cur)
    k = seen[cur]
    sups.append(cur)
    return Lasso(tuple(sups), k, len(sups) - 1 - k)


def pre_lasso(m, t, max_len=None):
    """The iterated-predecessor lasso of a target set."""
    return iterate_lasso(lambda y: pre(m, y), t, max_len, "pre-lasso")


def sure_safety_region(m, t):
    """Largest set the controller can keep all mass inside `t` from, forever."""
    y = m.full_support()
    while True:
        nxt = t & pre(m, y)
        if nxt == y:
            return y
        y = nxt


def reach_layers(m, s):
    """Increasing attractor layers for forced reachability of `s`."""
    layers = [s]
    while True:
        nxt = s | pre(m, layers[-1])
        if nxt == layers[-1]:
            return layers
        layers.append(nxt)


def sure_reach_region(m, s):
    """States from which some strategy forces every compatible path into `s`."""
    return reach_layers(m, s)[-1]


def almost_sure_reach_region(m, t):
    """States almost-sure winning for reaching `t`: nu Y. mu X. t u APre(Y, X)."""
    y = m.full_support()
    while True:
        x = m.empty_support()
        while True:
            nxt = t | apre(m, y, x)
            if nxt == x:
                break
            x = nxt
        if x == y:
            return y
        y = x


def _closure(start, step):
    """Smallest bit mask containing `start` and closed under q -> step[q]."""
    seen = frontier = start
    while frontier:
        nxt = 0
        for q in _iter_bits(frontier):
            nxt |= step[q]
        frontier = nxt & ~seen
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
    component_of: tuple        # state -> component index, None outside the union
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
            found.append((SupportSet(m.n, sbits), inside))
        else:
            work.extend(comps)

    found.sort(key=lambda pair: min(pair[0]))
    union = m.empty_support()
    component_of = [None] * m.n
    internal = [None] * m.n
    comps = []
    for idx, (s, inside) in enumerate(found):
        comps.append(s)
        union = union | s
        for q in s:
            component_of[q] = idx
            internal[q] = tuple(inside[q])
    return EcDecomposition(tuple(comps), union, tuple(component_of), tuple(internal))
