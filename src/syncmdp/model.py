"""Exact data model for MDPs viewed as transformers of probability distributions.

States and actions live in declaration order and are referred to by index in
every algorithm. Names resolve once, at the document boundary (`parse_model`
in, the reports out): no model object keeps a name index. Probabilities
are `fractions.Fraction` end to end, so all invariants in this package are
checked with exact equality (masses sum to 1, never "close to 1"). The checks
read numerators and denominators as integers: a sign is a numerator's sign and
a sum is one integer sum over the least common denominator.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_

SYNC_MODES = ("always", "eventually", "weakly", "strongly")
WIN_MODES = ("sure", "almost-sure", "limit-sure", "positive", "bounded")

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelFormatError(ValueError):
    """A model document violates the input format; `location` points at the culprit."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else str(message))


class GuardExceeded(RuntimeError):
    """An exponential-stage guard tripped; `stage` names the offending computation."""

    def __init__(self, stage, message):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class BudgetExceeded(GuardExceeded):
    """A work budget was exhausted before the operation could finish."""


@dataclass(frozen=True)
class Limits:
    """Guard thresholds for the exponential stages of the analysis."""

    max_lasso: int = 1 << 16      # longest support/predecessor lasso explored
    subset_width: int = 16        # widest fixpoint bound the almost-sure weakly search walks

DEFAULT_LIMITS = Limits()


_RATIONAL_RE = re.compile(r"\s*([0-9]+)\s*(?:/\s*([0-9]+))?\s*", re.ASCII)
_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")   # JSON can escape one; UTF-8 cannot encode it


def parse_rational(text, location=None):
    """Parse an ASCII decimal-integer "p" or "p/q" string into an exact Fraction."""
    if not isinstance(text, str) or (m := _RATIONAL_RE.fullmatch(text)) is None:
        raise ModelFormatError(f"malformed rational {text!r}", location)
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # beyond the interpreter's integer-string digit limit
        raise ModelFormatError("rational has too many digits", location) from None
    if den == 0:
        raise ModelFormatError(f"zero denominator in rational {text!r}", location)
    return Fraction(num, den)


def _sums_to_one(values):
    """Whether the rationals `values` sum to exactly 1: one pass of one integer
    sum over a common denominator, grown by `lcm` only when the next denominator
    does not divide it, where a `Fraction` sum would reduce at every addition."""
    num, den = 0, 1
    for p in values:
        p_num, p_den = p.numerator, p.denominator
        if den % p_den:
            grown = lcm(den, p_den)
            num, den = num * (grown // den), grown
        num += p_num * (den // p_den)
    return num == den


def _iter_bits(bits):
    """Indices of the set bits of a mask, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# Reports write a rational's digits only while its numerator and denominator
# each have at most 4,300 digits (CPython's default int-to-str limit).
DIGIT_CEILING = 10 ** 4300


def log10_of(value):
    """log10 of a rational or int, from its numerator and denominator (None unless positive)."""
    return (math.log10(value.numerator) - math.log10(value.denominator)
            if value.numerator > 0 else None)


def rational_obj(value):
    """A rational as reports write it: "p/q", or past the digit limit null plus log10."""
    if abs(value.numerator) < DIGIT_CEILING and value.denominator < DIGIT_CEILING:
        return str(value)
    return {"exact": None, "log10": log10_of(value)}


def _sum_text(values):
    """"sums to p/q", or past the digit limit "does not sum to 1" and the sum's log10."""
    total = rational_obj(sum(values, ZERO))
    return (f"sums to {total}" if isinstance(total, str)
            else f"does not sum to 1 (log10 of the sum: {total['log10']!r})")


@dataclass(frozen=True)
class SupportSet:
    """Subset of the state space as a fixed-width bit vector."""

    width: int
    bits: int = 0

    def __post_init__(self):
        if self.width < 0 or self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"bits {self.bits:#x} out of range for width {self.width}")

    @classmethod
    def of(cls, width, indices):
        bits = 0
        for q in indices:
            if not 0 <= q < width:
                raise ValueError(f"state index {q} out of range for width {width}")
            bits |= 1 << q
        return cls(width, bits)

    def __contains__(self, q):
        return 0 <= q < self.width and self.bits >> q & 1 == 1

    def __iter__(self):
        return _iter_bits(self.bits)

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def _compatible(self, other):
        if not isinstance(other, SupportSet) or other.width != self.width:
            raise ValueError("support-set width mismatch")
        return other

    def __or__(self, other):
        return SupportSet(self.width, self.bits | self._compatible(other).bits)

    def __and__(self, other):
        return SupportSet(self.width, self.bits & self._compatible(other).bits)

    def __sub__(self, other):
        return SupportSet(self.width, self.bits & ~self._compatible(other).bits)

    def __le__(self, other):
        return self.bits & ~self._compatible(other).bits == 0

    def names(self, state_names):
        return tuple(state_names[q] for q in self)

    def __repr__(self):
        return f"SupportSet({list(self)}, width={self.width})"


@dataclass(frozen=True, eq=True)
class Dist:
    """Exact probability distribution over state indices; only positive mass is stored.

    The states are checked in index order, each for its range and then for the
    sign of its numerator; the positive masses must then sum to exactly 1, one
    integer sum over their least common denominator (`_sums_to_one`). The
    `Fraction` total is built only for the message (`_sum_text`).
    """

    width: int
    mass: dict

    def __post_init__(self):
        clean = {}
        for q in sorted(self.mass):
            p = self.mass[q]
            p = p if isinstance(p, Fraction) else Fraction(p)
            if not 0 <= q < self.width:
                raise ValueError(f"state index {q} out of range for width {self.width}")
            num = p.numerator
            if num < 0:
                raise ValueError(f"negative mass {p} at state {q}")
            if num:
                clean[q] = p
        if not _sums_to_one(clean.values()):
            raise ValueError(f"distribution {_sum_text(clean.values())}")
        object.__setattr__(self, "mass", clean)

    @classmethod
    def dirac(cls, width, q):
        return cls(width, {q: ONE})

    def support(self):
        return SupportSet.of(self.width, self.mass)

    def __repr__(self):
        inner = ", ".join(f"{q}: {p}" for q, p in self.mass.items())
        return f"Dist({{{inner}}}, width={self.width})"


class Mdp:
    """Finite MDP (Q, A, delta) with a total, exact transition function and its
    support skeleton, all that the support operators read: succ[q][a] is the bit
    mask of Supp(delta(q, a)), post[q] the union of succ[q]."""

    def __init__(self, states, actions, delta):
        states = tuple(states)
        actions = tuple(actions)
        for names, what in ((states, "state"), (actions, "action")):
            if not names:
                raise ValueError(f"an MDP needs at least one {what}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {what} names")
        n = len(states)
        rows = []
        for q in range(n):
            row = []
            for a in range(len(actions)):
                try:
                    d = delta[q][a]
                except (IndexError, KeyError, TypeError):
                    d = None
                if not isinstance(d, Dist) or d.width != n:
                    raise ValueError(
                        f"missing or malformed distribution for ({states[q]}, {actions[a]})")
                row.append(d)
            rows.append(tuple(row))
        self.states = states
        self.actions = actions
        self.delta = tuple(rows)
        self.n = n
        self.succ = tuple(tuple(sum(1 << q for q in d.mass) for d in row) for row in self.delta)
        self.post = tuple(reduce(or_, row) for row in self.succ)

    @property
    def action_count(self):
        return len(self.actions)

    def __repr__(self):
        return f"Mdp(n={self.n}, actions={list(self.actions)})"


def min_positive_probability(m):
    """Smallest positive transition probability of the MDP (alpha), compared by
    cross-multiplying numerators and denominators (every mass is at most 1)."""
    alpha, num, den = ONE, 1, 1
    for row in m.delta:
        for d in row:
            for p in d.mass.values():
                if p.numerator * den < num * p.denominator:
                    alpha, num, den = p, p.numerator, p.denominator
    return alpha


def min_initial_probability(d0, restrict=None):
    """Smallest positive initial mass (alpha0), optionally over a sub-support."""
    if restrict is None:
        return min(d0.mass.values())
    if not restrict:
        raise ValueError("restriction set is empty")
    if not restrict <= d0.support():
        raise ValueError("restriction set not contained in the initial support")
    return min(d0.mass[q] for q in restrict)


@dataclass(frozen=True)
class StrategySpec:
    """Counting strategy: the move depends only on the current state and on a
    step counter, the position j in `memory`.

    Position 0 comes first and position next(j) follows j: the positions run
    in order and return to `loop_start` after the last one. At position j a
    state q plays the action row forced[j][q] when q is listed there, and the
    shared uniform row `default` otherwise.

    Every distinct row must be a distribution over actions: no numerator
    negative, and the values summing to exactly 1 by the integer sum of
    `_sums_to_one`, as in `Dist`.
    """

    label: str
    memory: tuple
    loop_start: int
    forced: tuple
    default: dict

    def __post_init__(self):
        if not 0 <= self.loop_start < len(self.memory):
            raise ValueError(f"loop start {self.loop_start} is not a memory position")
        if len(self.forced) != len(self.memory):
            raise ValueError("forced rows need one entry per memory value")
        for row in self.rows():
            values = row.values()
            if any(p.numerator < 0 for p in values) or not _sums_to_one(values):
                shown = row if all(isinstance(rational_obj(p), str) for p in values) else list(row)
                raise ValueError(f"action row {shown} is not a distribution ({_sum_text(values)})")

    def next(self, j):
        """The position after position j."""
        return j + 1 if j + 1 < len(self.memory) else self.loop_start

    def rows(self):
        """Every distinct row object once (rows are routinely shared), default first."""
        rows = {id(self.default): self.default}
        for part in self.forced:
            for row in part.values():
                rows.setdefault(id(row), row)
        return list(rows.values())


def _uniform_row(m):
    share = Fraction(1, m.action_count)
    return {a: share for a in range(m.action_count)}


def _cached(cache, key, make):
    """The deciders' memo: `cache[key]`, made on first use."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def uniform_strategy(m):
    """The memoryless strategy playing every action with equal probability."""
    return StrategySpec("uniform", (0,), 0, ({},), _uniform_row(m))


def _check_question(sync_mode, t, s0, cache):
    """Reject a question no decider answers: an unknown sync mode, a target and
    an initial support of different widths, or an empty initial support. Returns
    the memo the decider answers through: `cache`, or a fresh one when None."""
    if sync_mode not in SYNC_MODES:
        raise ValueError(f"unknown sync mode {sync_mode!r}")
    if t.width != s0.width:
        raise ValueError("target and initial support widths differ")
    if not s0:
        raise ValueError("initial support must be nonempty")
    return {} if cache is None else cache


@dataclass(frozen=True)
class Verdict:
    """A decider's answer plus whatever makes it re-checkable. The question (the
    cell, the target, the initial support) is the caller's: coinciding cells
    share one verdict."""

    answer: bool
    witness: StrategySpec | None = None
    certificate: dict | None = None


# --- model documents ------------------------------------------------------------

@dataclass
class ParsedModel:
    mdp: Mdp
    initial: Dist
    targets: dict


def parse_model(doc):
    """Parse a model document (JSON text or an already-decoded dict).

    Format: {"states": [...], "actions": [...],
             "transitions": [{"from", "action", "to", "prob"}...],
             "initial": {state: "p/q"...}, "targets": {name: [states...]}}.
    Rationals are decimal "p" or "p/q" strings; missing (state, action) pairs
    are rejected because the transition function is total.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level document must be an object")
    for key in ("states", "actions", "transitions", "initial"):
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")

    states = doc["states"]
    actions = doc["actions"]
    for names, what in ((states, "state"), (actions, "action")):
        if (not isinstance(names, list) or not names
                or any(not isinstance(x, str) or not x for x in names)):
            raise ModelFormatError("must be a nonempty list of names", f"{what}s")
        if len(set(names)) != len(names):
            raise ModelFormatError(f"duplicate {what} name", f"{what}s")
        if any(_LONE_SURROGATE.search(x) for x in names):
            raise ModelFormatError(f"a {what} name holds a lone surrogate", f"{what}s")
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}
    n = len(states)

    def lookup(index, name, what, loc):
        if not isinstance(name, str) or name not in index:
            raise ModelFormatError(f"unknown {what} {name!r}", loc) from None
        return index[name]

    def raise_fault(tr, loc):
        """Raise the located error of a transition the loop below could not index: its
        first failing check of object, keys from/action/to/prob, names from/to/action."""
        if not isinstance(tr, dict):
            raise ModelFormatError("transition must be an object", loc) from None
        for key in ("from", "action", "to", "prob"):
            if key not in tr:
                raise ModelFormatError(f"missing key {key!r}", loc) from None
        lookup(sidx, tr["from"], "state", loc)
        lookup(sidx, tr["to"], "state", loc)
        lookup(aidx, tr["action"], "action", loc)

    if not isinstance(doc["transitions"], list):
        raise ModelFormatError("must be a list of transition objects", "transitions")
    na = len(actions)
    masses = [{} for _ in range(n * na)]   # q * na + a -> {q2: p}, in document order
    probs = {}    # probability text -> its Fraction: each distinct text is parsed once
    for pos, tr in enumerate(doc["transitions"]):
        obj = tr if isinstance(tr, dict) else {}   # a non-object misses like a keyless one
        try:
            q, a, q2, text = sidx[obj["from"]], aidx[obj["action"]], sidx[obj["to"]], obj["prob"]
        except (KeyError, TypeError):
            raise_fault(tr, f"transitions[{pos}]")
            raise   # only a dict subclass that indexes unlike it tests keys gets here
        mass = masses[q * na + a]
        if q2 in mass:
            raise ModelFormatError(f"duplicate transition ({tr['from']}, {tr['action']}, "
                                   f"{tr['to']})", f"transitions[{pos}]")
        try:
            mass[q2] = probs[text]
        except (KeyError, TypeError):   # a miss; a non-string prob misses and fails to parse
            mass[q2] = probs[text] = parse_rational(text, f"transitions[{pos}]")

    rows = []
    for q in range(n):
        row = []
        for a in range(na):
            mass = masses[q * na + a]
            if not mass:
                raise ModelFormatError(
                    f"missing distribution for ({states[q]}, {actions[a]})", "transitions")
            try:
                row.append(Dist(n, mass))
            except ValueError as exc:   # Dist's message starts with "distribution"
                detail = str(exc).removeprefix("distribution ")
                raise ModelFormatError(f"distribution for ({states[q]}, {actions[a]}) {detail}",
                                       "transitions") from exc
        rows.append(row)
    mdp = Mdp(states, actions, rows)

    init = doc["initial"]
    if not isinstance(init, dict) or not init:
        raise ModelFormatError("must be a nonempty object", "initial")
    mass = {}
    for name, text in init.items():
        mass[lookup(sidx, name, "state", "initial")] = parse_rational(text, "initial")
    try:
        initial = Dist(n, mass)
    except ValueError as exc:
        raise ModelFormatError(str(exc), "initial") from exc

    if not isinstance(doc.get("targets", {}), dict):
        raise ModelFormatError("must be an object", "targets")
    targets = {}
    for name, members in doc.get("targets", {}).items():
        if _LONE_SURROGATE.search(name):
            raise ModelFormatError("a target name holds a lone surrogate", "targets")
        loc = f"targets[{name}]"
        if not isinstance(members, list):
            raise ModelFormatError("target must be a list of state names", loc)
        indices = [lookup(sidx, s, "state", loc) for s in members]
        if len(set(indices)) != len(indices):
            raise ModelFormatError("duplicate state in target", loc)
        targets[name] = SupportSet.of(n, indices)

    return ParsedModel(mdp, initial, targets)


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def model_to_obj(pm):
    """Inverse of parse_model, up to transition ordering."""
    m = pm.mdp
    transitions = []
    for q in range(m.n):
        for a in range(m.action_count):
            for q2, p in sorted(m.delta[q][a].mass.items()):
                transitions.append({"from": m.states[q], "action": m.actions[a],
                                    "to": m.states[q2], "prob": str(p)})
    return {
        "states": list(m.states),
        "actions": list(m.actions),
        "transitions": transitions,
        "initial": {m.states[q]: str(p) for q, p in pm.initial.mass.items()},
        "targets": {name: list(s.names(m.states)) for name, s in pm.targets.items()},
    }


def serialize_model(pm):
    return json.dumps(model_to_obj(pm), indent=2)
