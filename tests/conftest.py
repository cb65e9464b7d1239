from fractions import Fraction

import pytest

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
