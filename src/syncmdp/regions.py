"""Support-set fixpoints: predecessor operators, winning regions for safety and
reachability, and maximal end-component decomposition.

All routines are pure functions over an immutable Mdp; sets are SupportSet bit
vectors and every fixpoint is iterated to exact stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import GuardExceeded, SupportSet


def _width_check(m, s):
    if s.width != m.n:
        raise ValueError("support-set width does not match the MDP")
    return s.bits


def pre(m, y):
    """States with an action whose whole successor support lies inside `y`."""
    ybits = _width_check(m, y)
    bits = 0
    for q in range(m.n):
        for a in range(m.action_count):
            s = m.succ_bits(q, a)
            if s & ybits == s:
                bits |= 1 << q
                break
    return SupportSet(m.n, bits)


def apre(m, y, x):
    """States with an action keeping all successors in `y` and hitting `x`."""
    ybits = _width_check(m, y)
    xbits = _width_check(m, x)
    bits = 0
    for q in range(m.n):
        for a in range(m.action_count):
            s = m.succ_bits(q, a)
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


def strongly_connected_components(nodes, successors):
    """Iterative Tarjan; returns components as lists, in root-discovery order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


@dataclass(frozen=True)
class EcDecomposition:
    """Maximal end components, their union, and the per-state internal actions."""

    components: tuple          # disjoint SupportSets, ordered by smallest member
    union: SupportSet
    component_of: tuple        # state -> component index, None outside the union
    internal_actions: tuple    # state -> actions staying inside its component

    def component(self, q):
        idx = self.component_of[q]
        return None if idx is None else self.components[idx]


def mec_decomposition(m):
    """All maximal end components by iterative SCC refinement."""
    work = [m.full_support()]
    found = []
    while work:
        s = work.pop()
        if not s:
            continue
        sbits = s.bits
        inside = {}
        for q in s:
            inside[q] = [a for a in range(m.action_count)
                         if m.succ_bits(q, a) & sbits == m.succ_bits(q, a)]
        bad = [q for q, acts in inside.items() if not acts]
        if bad:
            work.append(s - SupportSet.of(m.n, bad))
            continue

        def succs(q):
            out = 0
            for a in inside[q]:
                out |= m.succ_bits(q, a)
            return SupportSet(m.n, out)

        comps = strongly_connected_components(list(s), succs)
        if len(comps) == 1:
            found.append((s, inside))
        else:
            work.extend(SupportSet.of(m.n, c) for c in comps)

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
