"""Support-set fixpoints: predecessor operators, the one lasso builder, winning
regions for safety and reachability, and maximal end-component decomposition.

All routines are pure functions of an Mdp's supports. Sets are SupportSet bit
vectors outside and raw bit masks inside (for the counter product M x [r], one
r-bit counter mask per state), and every fixpoint is iterated to exact stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .model import DEFAULT_LIMITS, GuardExceeded, SupportSet, _iter_bits


def _width_check(m, s):
    if s.width != m.n:
        raise ValueError("support-set width does not match the MDP")
    return s.bits


def _apre(succ, y):
    """Mask Pre(y): the states with an action keeping all successors in y."""
    bits = 0
    for q, row in enumerate(succ):
        for s in row:
            if s & y == s:
                bits |= 1 << q
                break
    return bits


def _counter_apre(m, y, x, r):
    """APre(Y, X) in M x [r] on counter masks: per state, the counters at which some
    action keeps all its successors in Y and hits X (a step rotates their masks right)."""
    out = []
    for row in m.delta:
        bits = 0
        for d in row:
            keep, hit = -1, 0
            for q2 in d.mass:
                keep &= y[q2]
                hit |= x[q2]
            bits |= keep & hit
        out.append(bits >> 1 | (bits & 1) << r - 1)
    return out


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

    def at(self, i):
        """Support at an arbitrary iteration index i >= 0."""
        if i < len(self.supports):
            return self.supports[i]
        return self.supports[self.start + (i - self.start) % self.period]


def iterate_lasso(step, start, max_len, stage):
    """Iterate the bit-mask `step` from the SupportSet `start` until the first
    repeated support; more than `max_len` distinct supports trip the guard of `stage`."""
    seen = {}   # mask -> index, in iteration order
    cur = start.bits
    while cur not in seen:
        if len(seen) >= max_len:
            raise GuardExceeded(stage, f"no repetition within {max_len} supports")
        seen[cur] = len(seen)
        cur = step(cur)
    k = seen[cur]
    return Lasso(tuple(SupportSet(start.width, b) for b in (*seen, cur)), k, len(seen) - k)


def pre_lasso(m, t, max_len=DEFAULT_LIMITS.max_lasso, pre_map=None):
    """The iterated-predecessor lasso of a target set, stepping through `pre_map`
    (a PreMap of `m`; a fresh one when None)."""
    _width_check(m, t)
    step = (PreMap(m) if pre_map is None else pre_map).__getitem__
    return iterate_lasso(step, t, max_len, "pre-lasso")


def sure_safety_region(m, t):
    """Largest set the controller can keep all mass inside `t` from, forever."""
    tbits = _width_check(m, t)
    y = (1 << m.n) - 1
    while (nxt := tbits & _apre(m.succ, y)) != y:
        y = nxt
    return SupportSet(m.n, y)


def reach_layers(m, s):
    """Increasing attractor layers for forced reachability of `s`; the last is its region."""
    layers = [s]
    while (nxt := s | pre(m, layers[-1])) != layers[-1]:
        layers.append(nxt)
    return layers


MAX_PRODUCT_STATES = 1 << 21   # states n r of the largest counter product M x [r]


def almost_sure_reach_region(m, t, r=1):
    """States almost-sure winning for reaching t x {0} in M x [r], which counts steps
    modulo r (r = 1 is M): nu Y. mu X. (t x {0}) u APre(Y, X), <q, i> at bit
    q r + (r-1-i). A product past MAX_PRODUCT_STATES trips the guard first."""
    tbits = _width_check(m, t)
    if m.n * r > MAX_PRODUCT_STATES:
        raise GuardExceeded("counter-product", f"M x [{r}] on {m.n} states has {m.n * r} "
                            f"states, guard is {MAX_PRODUCT_STATES}")
    goal = [(tbits >> q & 1) << r - 1 for q in range(m.n)]
    y = [(1 << r) - 1] * m.n
    while True:
        x = [0] * m.n
        while (nxt := [g | b for g, b in zip(goal, _counter_apre(m, y, x, r))]) != x:
            x = nxt
        if x == y:
            return SupportSet(m.n * r, sum(b << q * r for q, b in enumerate(y)))
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
