from fractions import Fraction

import pytest
from hypothesis import strategies as st

from syncmdp import Dist, Mdp, example_model, parse_model


@pytest.fixture(scope="session")
def drain():
    return example_model("drain")


@pytest.fixture(scope="session")
def funnel():
    return example_model("funnel")


@pytest.fixture(scope="session")
def loopback():
    return example_model("loopback")


@pytest.fixture(scope="session")
def twophase():
    return example_model("twophase")


def build(doc):
    """Parse a model given as a plain dict (test shorthand)."""
    return parse_model(doc)


def as_dists(trace, width):
    """The steps of an oracle trace as `Dist`s (each checked to sum to exactly 1),
    to compare against the tests' `Fraction` reference loops."""
    return tuple(Dist(width, {q: Fraction(v, total) for q, v in nums.items()})
                 for nums, total in zip(trace.nums, trace.totals))


def target_masses(trace, t):
    """The target mass at each step of an oracle trace, as `Fraction`s."""
    return [Fraction(sum(v for q, v in nums.items() if q in t), total)
            for nums, total in zip(trace.nums, trace.totals)]


def as_fractions(profile):
    """The (target numerator, total) steps of an oracle step profile as `Fraction`s,
    to compare against the tests' `Fraction` reference loops."""
    return tuple(Fraction(v, total) for v, total in profile)


def synchronized_positions(trace, t, threshold, strict=True):
    """Reference: the steps of an oracle trace whose target mass, as a `Fraction`,
    clears the threshold (strictly or not)."""
    return tuple(i for i, mass in enumerate(target_masses(trace, t))
                 if mass > threshold or not strict and mass == threshold)


def mass_in(d, t):
    """The mass a `Dist` puts in the set t."""
    return sum(p for q, p in d.mass.items() if q in t)


ABSORBING = {
    "states": ["t"],
    "actions": ["a"],
    "transitions": [{"from": "t", "action": "a", "to": "t", "prob": "1"}],
    "initial": {"t": "1"},
    "targets": {"target": ["t"]},
}

# q0 -> q1 -> q1 with target {q0}: the history tree has one node per depth,
# so pure-strategy enumeration admits depths past Python's recursion limit
CHAIN = {
    "states": ["q0", "q1"],
    "actions": ["a"],
    "transitions": [{"from": "q0", "action": "a", "to": "q1", "prob": "1"},
                    {"from": "q1", "action": "a", "to": "q1", "prob": "1"}],
    "initial": {"q0": "1"},
    "targets": {"target": ["q0"]},
}


def feeder_cycle(k, loops=0):
    """One action: the 2-cycle a0 <-> a1, k feeders b_i -> a0 and `loops` self-loops
    x_i, from a0, with target T = {a0, b_0..b_(k-1), x_0..x_(loops-1)}. Each state
    of T is limit-sure alone, so the almost-sure weakly fixpoint bound is all of T,
    and T fails the second condition when k >= 1 (a0 and the feeders are out of
    phase). The search's first hit is T without its feeders: with k = 1, a subset
    one smaller than T; with no loops, {a0}, after every larger subset."""
    feeders, xs = [f"b{i}" for i in range(k)], [f"x{i}" for i in range(loops)]
    step = {"a0": "a1", "a1": "a0", **dict.fromkeys(feeders, "a0"), **{x: x for x in xs}}
    return {
        "states": list(step),
        "actions": ["a"],
        "transitions": [{"from": q, "action": "a", "to": nxt, "prob": "1"}
                        for q, nxt in step.items()],
        "initial": {"a0": "1"},
        "targets": {"target": ["a0", *feeders, *xs]},
    }


def prime_cycles(lengths=(2, 3, 5, 7, 11, 13), spread=False):
    """One action: disjoint deterministic cycles c<l>_0 -> ... -> c<l>_(l-1) -> c<l>_0
    of the given lengths, with target the cycle starts. The initial mass is
    uniform on the cycle starts, or with `spread` on every state. With the
    default lengths (41 states) the support lasso closes after lcm = 30,030
    steps; with `spread` the start lies in no Pre^i of the target, so limit-sure
    eventually needs the counter product M x [30030]."""
    cycles = [[f"c{n}_{i}" for i in range(n)] for n in lengths]
    states = [q for cycle in cycles for q in cycle]
    starts = [cycle[0] for cycle in cycles]
    init = states if spread else starts
    return {
        "states": states,
        "actions": ["next"],
        "transitions": [{"from": q, "action": "next", "to": cycle[(i + 1) % len(cycle)],
                         "prob": "1"} for cycle in cycles for i, q in enumerate(cycle)],
        "initial": dict.fromkeys(init, f"1/{len(init)}"),
        "targets": {"target": starts},
    }


def exact_counter_product(m, r):
    """Reference M x [r] with exact distributions, to check the package's
    support-only `counter_product` against: product state <q, i> has index
    q*r + (r-1-i), and every action moves <q, i> to the successors of q at
    counter i-1 mod r with the same probabilities."""
    names = [f"{s}@{i}" for s in m.states for i in range(r - 1, -1, -1)]
    rows = []
    for q in range(m.n):
        for i in range(r - 1, -1, -1):
            j = (i - 1) % r
            rows.append([Dist(m.n * r, {q2 * r + (r - 1 - j): p for q2, p in d.mass.items()})
                         for d in m.delta[q]])
    return Mdp(names, m.actions, rows)


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
