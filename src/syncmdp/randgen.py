"""Seeded random model generator for the verification corpus.

Distributions are built from bounded-denominator compositions so every mass is
an exact k/D with D at most the configured denominator bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .model import Dist, Mdp, SupportSet

ACTION_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class RandomInstance:
    mdp: Mdp
    initial: Dist
    target: SupportSet


def random_dist(rng, n, max_denominator=4):
    """Random exact distribution with denominator at most max_denominator."""
    size = rng.randint(1, min(n, max_denominator))
    support = rng.sample(range(n), size)
    denom = rng.randint(size, max_denominator)
    cuts = sorted(rng.sample(range(1, denom), size - 1)) if size > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return Dist(n, {q: Fraction(k, denom) for q, k in zip(support, parts)})


def random_mdp(rng, n=None, max_states=5, max_actions=2, max_denominator=4):
    if max_actions > len(ACTION_NAMES):
        raise ValueError(f"max_actions is at most {len(ACTION_NAMES)}, got {max_actions}")
    if n is None:
        n = rng.randint(1, max_states)
    a_count = rng.randint(1, max_actions)
    states = [f"s{i}" for i in range(n)]
    actions = list(ACTION_NAMES[:a_count])
    rows = [[random_dist(rng, n, max_denominator) for _ in actions] for _ in states]
    return Mdp(states, actions, rows)


def random_instance(rng, n=None, max_states=5, max_actions=2, max_denominator=4):
    m = random_mdp(rng, n=n, max_states=max_states, max_actions=max_actions,
                   max_denominator=max_denominator)
    if rng.random() < 0.5:
        initial = Dist.dirac(m.n, rng.randrange(m.n))
    else:
        initial = random_dist(rng, m.n, max_denominator)
    target = SupportSet(m.n, rng.getrandbits(m.n))
    return RandomInstance(m, initial, target)


def corpus(seed, count, **kwargs):
    """Deterministic list of random instances for a given seed."""
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]
