import random
import runpy
import traceback
from collections import UserDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (Dist, Mdp, ModelFormatError, ParsedModel, StrategySpec, SupportSet,
                     min_initial_probability, min_positive_probability, model_to_obj,
                     parse_model, parse_rational, serialize_model, simulate,
                     uniform_strategy)
from syncmdp.model import ONE, _check_question, _sums_to_one, rational_obj
from syncmdp.randgen import corpus

from conftest import ABSORBING, as_dists, build, exact_counter_product

DIGEST_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("1/1") == 1
    assert parse_rational("7") == 7
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(" 3 / 9 ") == Fraction(1, 3)
    assert parse_rational("\t1/2\n") == Fraction(1, 2)
    # only ASCII digits and whitespace: no other script's digits, no full-width
    # forms, no no-break space
    for bad in ("0.5", "1e3", "-1/2", "1/-2", "", "a", "1/0", 5, None,
                "\u0661/\u0662", "\uff11/\uff12", "\u00a01/2"):
        with pytest.raises(ModelFormatError):
            parse_rational(bad)


def test_format_rational_roundtrip():
    for text in ("0", "1", "1/2", "355/113"):
        assert str(parse_rational(text)) == text


def test_parse_funnel(funnel):
    m = funnel.mdp
    assert m.n == 4 and m.action_count == 2
    assert min_positive_probability(m) == Fraction(1, 2)
    assert funnel.initial == Dist.dirac(4, 0)
    assert funnel.targets["target"] == SupportSet.of(4, [2])


def test_parse_smallest_model():
    pm = build(ABSORBING)
    assert pm.mdp.n == 1
    assert pm.mdp.delta[0][0] == Dist.dirac(1, 0)


def test_parse_sum_violation():
    doc = {
        "states": ["q0", "q1"], "actions": ["a"],
        "transitions": [
            {"from": "q0", "action": "a", "to": "q0", "prob": "1/3"},
            {"from": "q0", "action": "a", "to": "q1", "prob": "1/3"},
            {"from": "q1", "action": "a", "to": "q1", "prob": "1"},
        ],
        "initial": {"q0": "1"},
    }
    with pytest.raises(ModelFormatError) as err:
        build(doc)
    assert str(err.value) == "transitions: distribution for (q0, a) sums to 2/3"


def test_parse_errors_located():
    base = {
        "states": ["q0"], "actions": ["a"],
        "transitions": [{"from": "q0", "action": "a", "to": "q0", "prob": "1"}],
        "initial": {"q0": "1"},
    }
    bad = dict(base, transitions=base["transitions"] + [
        {"from": "q0", "action": "a", "to": "q0", "prob": "1"}])
    with pytest.raises(ModelFormatError, match="duplicate transition"):
        build(bad)
    bad = dict(base, transitions=[{"from": "qX", "action": "a", "to": "q0", "prob": "1"}])
    with pytest.raises(ModelFormatError, match="unknown state 'qX'"):
        build(bad)
    bad = dict(base, states=["q0", "q1"])
    with pytest.raises(ModelFormatError, match="missing distribution"):
        build(bad)
    bad = dict(base, initial={"q0": "1/2"})
    with pytest.raises(ModelFormatError, match="initial"):
        build(bad)
    bad = dict(base, targets={"t": ["nope"]})
    with pytest.raises(ModelFormatError, match="nope"):
        build(bad)
    bad = dict(base, states=["q0", "q0"])
    with pytest.raises(ModelFormatError, match="duplicate state"):
        build(bad)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        parse_model("{")


TWO_STATES = {
    "states": ["q0", "q1"], "actions": ["a"],
    "transitions": [{"from": "q0", "action": "a", "to": "q0", "prob": "1"},
                    {"from": "q1", "action": "a", "to": "q1", "prob": "1"}],
    "initial": {"q0": "1"},
}
GOOD = {"from": "q0", "action": "a", "to": "q1", "prob": "0"}


def with_transitions(*extra):
    return dict(TWO_STATES, transitions=TWO_STATES["transitions"] + list(extra))


@pytest.mark.parametrize("tr, message", [
    (["q0", "a", "q1", "0"], "transition must be an object"),
    ("q0", "transition must be an object"),
    (None, "transition must be an object"),
    (UserDict(GOOD), "transition must be an object"),   # a decoded document's mapping
    ({k: v for k, v in GOOD.items() if k != "from"}, "missing key 'from'"),
    ({k: v for k, v in GOOD.items() if k != "action"}, "missing key 'action'"),
    ({k: v for k, v in GOOD.items() if k != "to"}, "missing key 'to'"),
    ({k: v for k, v in GOOD.items() if k != "prob"}, "missing key 'prob'"),
    ({}, "missing key 'from'"),
    ({"from": "qX", "to": "qX", "action": "z"}, "missing key 'prob'"),   # keys before names
    (dict(GOOD, **{"from": "qX"}), "unknown state 'qX'"),
    (dict(GOOD, to="qX"), "unknown state 'qX'"),
    (dict(GOOD, action="z"), "unknown action 'z'"),
    (dict(GOOD, action="q0"), "unknown action 'q0'"),
    (dict(GOOD, **{"from": 0}), "unknown state 0"),
    (dict(GOOD, to=None), "unknown state None"),
    (dict(GOOD, to=["q1"]), "unknown state ['q1']"),
    (dict(GOOD, action={"a": 1}), "unknown action {'a': 1}"),
    (dict(GOOD, action=1.5), "unknown action 1.5"),
    # names are checked in the order from, to, action
    (dict(GOOD, **{"from": "qX"}, to=[], action="z"), "unknown state 'qX'"),
    (dict(GOOD, to=[], action="z"), "unknown state []"),
    (dict(GOOD, to="q0", prob="1"), "duplicate transition (q0, a, q0)"),
    (dict(GOOD, to="q0", prob="x"), "duplicate transition (q0, a, q0)"),
    (dict(GOOD, prob=1), "malformed rational 1"),
    (dict(GOOD, prob=["0"]), "malformed rational ['0']"),
    (dict(GOOD, prob="1/2/3"), "malformed rational '1/2/3'"),
    (dict(GOOD, prob="-1/2"), "malformed rational '-1/2'"),
    (dict(GOOD, prob="1/0"), "zero denominator in rational '1/0'"),
])
def test_transition_faults_give_their_exact_message(tr, message):
    with pytest.raises(ModelFormatError) as err:
        parse_model(with_transitions(tr))
    assert str(err.value) == f"transitions[2]: {message}"
    assert err.value.location == "transitions[2]"
    if not message.startswith(("malformed", "zero")):   # a rational fails on a cache miss
        assert "During handling" not in "".join(traceback.format_exception(err.value))


@pytest.mark.parametrize("first, second, message", [
    ({"action": "a"}, None, "missing key 'from'"),
    (None, {"action": "a"}, "transition must be an object"),
    (dict(GOOD, prob="1/0"), [], "zero denominator in rational '1/0'"),
    (dict(GOOD, action="z"), dict(GOOD, **{"from": "qX"}), "unknown action 'z'"),
    (dict(GOOD, prob="x"), dict(GOOD, action="z"), "malformed rational 'x'"),
    (dict(GOOD, to="q0"), dict(GOOD, to="qX"), "duplicate transition (q0, a, q0)"),
])
def test_the_first_faulty_transition_is_reported(first, second, message):
    # the second fault is of a kind checked earlier than the first one
    with pytest.raises(ModelFormatError) as err:
        parse_model(with_transitions(first, second))
    assert str(err.value) == f"transitions[2]: {message}"


def ref_parse_transitions(doc):
    """Reference: the validating transition loop of the earlier parser, which
    checks every transition in full (an object, the four keys, the names from,
    to and action, a duplicate, the probability text) before it reads it.
    Returns the masses, (q, a) -> {q2: p} in document order."""
    sidx = {s: i for i, s in enumerate(doc["states"])}
    aidx = {a: i for i, a in enumerate(doc["actions"])}

    def lookup(index, name, what, loc):
        if not isinstance(name, str) or name not in index:
            raise ModelFormatError(f"unknown {what} {name!r}", loc)
        return index[name]

    masses, probs = {}, {}
    for pos, tr in enumerate(doc["transitions"]):
        loc = f"transitions[{pos}]"
        if not isinstance(tr, dict):
            raise ModelFormatError("transition must be an object", loc)
        for key in ("from", "action", "to", "prob"):
            if key not in tr:
                raise ModelFormatError(f"missing key {key!r}", loc)
        q = lookup(sidx, tr["from"], "state", loc)
        q2 = lookup(sidx, tr["to"], "state", loc)
        a = lookup(aidx, tr["action"], "action", loc)
        mass = masses.setdefault((q, a), {})
        if q2 in mass:
            raise ModelFormatError(
                f"duplicate transition ({tr['from']}, {tr['action']}, {tr['to']})", loc)
        text = tr["prob"]
        try:
            mass[q2] = probs[text]
        except (KeyError, TypeError):
            mass[q2] = probs[text] = parse_rational(text, loc)
    return masses


def outcome(parse, doc):
    """The model as `model_to_obj` writes it, or the exception's type and message."""
    try:
        return model_to_obj(parse(doc))
    except Exception as exc:   # the failure is what is compared
        return type(exc), str(exc)


def ref_outcome(doc):
    """The earlier parser's outcome: the reference loop's error, or else the
    outcome of the document rewritten from the masses it read (the later
    stages of `parse_model` are unchanged)."""
    try:
        masses = ref_parse_transitions(doc)
    except ModelFormatError as exc:
        return ModelFormatError, str(exc)
    states, actions = doc["states"], doc["actions"]
    rows = [{"from": states[q], "action": actions[a], "to": states[q2], "prob": str(p)}
            for (q, a), mass in masses.items() for q2, p in mass.items()]
    return outcome(parse_model, dict(doc, transitions=rows))


def corpus_documents(seed, count):
    return [model_to_obj(ParsedModel(i.mdp, i.initial, {"target": i.target}))
            for i in corpus(seed, count)]


def test_parse_matches_the_validating_loop_on_corrupted_documents():
    corrupt = runpy.run_path(str(DIGEST_SCRIPT))["corrupt_document"]
    rng = random.Random(20261021)
    seen = set()
    for doc in corpus_documents(20261021, 1000):
        for bad in (doc, corrupt(rng, doc), corrupt(rng, doc)):
            expected = ref_outcome(bad)
            assert outcome(parse_model, bad) == expected
            if isinstance(expected, tuple):
                seen.add(expected[1].split(": ")[1].split(" ")[0])
    # every kind of transition fault occurs, and documents that still parse
    assert {"transition", "missing", "unknown", "duplicate", "malformed", "zero",
            "distribution"} <= seen


def test_each_distinct_probability_text_is_one_fraction():
    for doc in corpus_documents(20260810, 60) + [TWO_STATES]:
        pm = parse_model(doc)
        sidx = {s: i for i, s in enumerate(pm.mdp.states)}
        aidx = {a: i for i, a in enumerate(pm.mdp.actions)}
        by_text = {}
        for tr in doc["transitions"]:
            p = pm.mdp.delta[sidx[tr["from"]]][aidx[tr["action"]]].mass[sidx[tr["to"]]]
            by_text.setdefault(tr["prob"], set()).add(id(p))
        assert all(len(ids) == 1 for ids in by_text.values())
        assert len(set().union(*by_text.values())) == len(by_text)


HUGE = 10 ** 900 + 1   # HUGE + k for k = 0, 1 are coprime
DENOMINATORS = [1, 2, 3, 4, 6, 7, 12, HUGE, HUGE + 1, 3 * HUGE]


@st.composite
def rational_lists(draw):
    """Lists of rationals, zero numerators included, that often sum to 1: with
    a drawn flag, 1 minus the sum so far is appended."""
    values = draw(st.lists(st.builds(Fraction, st.integers(-3, 12), st.sampled_from(DENOMINATORS)),
                           max_size=6))
    if draw(st.booleans()):
        values.append(1 - sum(values, Fraction(0)))
    return draw(st.permutations(values))


@given(rational_lists(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_sums_to_one_is_the_exact_sum(values, as_generator):
    expected = sum(values, Fraction(0)) == 1
    assert _sums_to_one((p for p in values) if as_generator else values) == expected


def test_sums_to_one_edge_cases():
    assert not _sums_to_one([])
    assert not _sums_to_one([Fraction(0)])
    assert _sums_to_one([ONE]) and _sums_to_one([Fraction(0), ONE, Fraction(0)])
    assert not _sums_to_one([Fraction(HUGE, HUGE + 1)])
    parts = [Fraction(1, HUGE), Fraction(1, HUGE + 1)]
    assert _sums_to_one(parts + [1 - sum(parts)])
    assert _sums_to_one(p for p in parts + [1 - sum(parts)])
    assert not _sums_to_one(parts + [1 - sum(parts) - Fraction(1, 3 * HUGE)])


def test_serialize_roundtrip_identity(drain, funnel, loopback, twophase):
    for pm in (drain, funnel, loopback, twophase):
        again = parse_model(serialize_model(pm))
        assert again.initial == pm.initial
        assert again.targets == pm.targets
        assert model_to_obj(again) == model_to_obj(pm)


def test_min_positive_probability_examples(funnel):
    assert min_positive_probability(funnel.mdp) == Fraction(1, 2)
    det = build(ABSORBING)
    assert min_positive_probability(det.mdp) == 1
    mixed = build({
        "states": ["q0", "q1", "q2"], "actions": ["a"],
        "transitions": [
            {"from": "q0", "action": "a", "to": "q0", "prob": "1/2"},
            {"from": "q0", "action": "a", "to": "q1", "prob": "1/3"},
            {"from": "q0", "action": "a", "to": "q2", "prob": "1/6"},
            {"from": "q1", "action": "a", "to": "q1", "prob": "1"},
            {"from": "q2", "action": "a", "to": "q2", "prob": "1"},
        ],
        "initial": {"q0": "1"},
    })
    assert min_positive_probability(mixed.mdp) == Fraction(1, 6)


def test_min_initial_probability():
    assert min_initial_probability(Dist.dirac(3, 0)) == 1
    half = Fraction(1, 2)
    assert min_initial_probability(Dist(4, {1: half, 3: half})) == half
    d = Dist(2, {0: Fraction(2, 3), 1: Fraction(1, 3)})
    assert min_initial_probability(d, SupportSet.of(2, [0])) == Fraction(2, 3)
    with pytest.raises(ValueError):
        min_initial_probability(Dist.dirac(2, 0), SupportSet.of(2, [1]))
    with pytest.raises(ValueError):
        min_initial_probability(Dist.dirac(2, 0), SupportSet(2))


def test_product_identity_counter(funnel):
    m = funnel.mdp
    prod = exact_counter_product(m, 1)
    assert prod.n == m.n
    assert min_positive_probability(prod) == min_positive_probability(m)
    for q in range(m.n):
        for a in range(m.action_count):
            assert sorted(prod.delta[q][a].mass.values()) \
                == sorted(m.delta[q][a].mass.values())


def test_product_twophase_period_two(twophase):
    m = twophase.mdp
    prod = exact_counter_product(m, 2)
    assert prod.n == 10
    q1_1 = prod.states.index("q1@1")
    q2_0 = prod.states.index("q2@0")
    assert prod.delta[q1_1][0].mass.get(q2_0, 0) == 1


def test_product_preserves_mass_and_alpha(funnel):
    m = funnel.mdp
    prod = exact_counter_product(m, 3)
    assert prod.n == 3 * m.n
    assert min_positive_probability(prod) == min_positive_probability(m)
    for row in prod.delta:
        for d in row:
            assert sum(d.mass.values()) == 1


def test_step_examples(funnel, loopback):
    m = funnel.mdp
    uniform = uniform_strategy(m)
    trace = simulate(m, uniform, Dist.dirac(4, 0), 1)
    assert as_dists(trace, 4)[1] == Dist(4, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert (uniform.memory, uniform.loop_start, uniform.forced) == ((0,), 0, ({},))
    assert uniform.next(0) == 0
    absorbing = build(ABSORBING).mdp
    d0 = Dist.dirac(1, 0)
    assert as_dists(simulate(absorbing, uniform_strategy(absorbing), d0, 1), 1)[1] == d0
    m3 = loopback.mdp
    trace = simulate(m3, uniform_strategy(m3), Dist.dirac(3, 2), 1)
    assert as_dists(trace, 3)[1] == Dist.dirac(3, 0)


def test_support_set_ops():
    s = SupportSet.of(5, [0, 3])
    t = SupportSet.of(5, [3, 4])
    assert list(s | t) == [0, 3, 4]
    assert list(s & t) == [3]
    assert list(s - t) == [0]
    assert s & t <= s and not s <= t
    assert len(s) == 2 and 3 in s and 1 not in s
    assert list(SupportSet(5, 0b11111) - s) == [1, 2, 4]
    assert not SupportSet(5)
    with pytest.raises(ValueError):
        s | SupportSet.of(4, [1])
    with pytest.raises(ValueError):
        SupportSet(3, 0b1000)


def test_dist_validation():
    with pytest.raises(ValueError, match="sums to 1/2"):
        Dist(2, {0: Fraction(1, 2)})
    with pytest.raises(ValueError, match="negative"):
        Dist(2, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    d = Dist(3, {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0)})
    assert list(d.support()) == [0, 1]
    assert d.mass == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_strategy_validation(funnel):
    m = funnel.mdp
    uniform = uniform_strategy(m).default
    with pytest.raises(ValueError, match="loop start"):
        StrategySpec("bad", (0, 1), 2, ({}, {}), uniform)
    with pytest.raises(ValueError, match="one entry per memory value"):
        StrategySpec("bad", (0, 1), 0, ({},), uniform)
    with pytest.raises(ValueError, match=r"not a distribution \(sums to 1/2\)"):
        StrategySpec("bad", (0,), 0, ({0: {0: Fraction(1, 2)}},), uniform)
    with pytest.raises(ValueError, match="not a distribution"):
        StrategySpec("bad", (0,), 0, ({},), {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    counter = StrategySpec("counter", (0, 1, 2), 1, ({}, {}, {}), uniform)
    assert [counter.next(j) for j in range(3)] == [1, 2, 1]


@pytest.mark.parametrize("states, actions, delta, message", [
    ([], ["a"], [], "at least one state"),
    (["q"], [], [[]], "at least one action"),
    (["q", "q"], ["a"], [[Dist.dirac(2, 0)]] * 2, "duplicate state names"),
    (["q"], ["a", "a"], [[Dist.dirac(1, 0)] * 2], "duplicate action names"),
    (["q", "r"], ["a"], [[Dist.dirac(2, 0)]], r"missing or malformed distribution for \(r, a\)"),
    (["q"], ["a", "b"], [[Dist.dirac(1, 0)]], r"missing or malformed distribution for \(q, b\)"),
    (["q"], ["a"], [[{0: ONE}]], r"missing or malformed distribution for \(q, a\)"),
    (["q"], ["a"], [[Dist.dirac(2, 0)]], r"missing or malformed distribution for \(q, a\)"),
    # two faults at once: the states are checked before the actions
    (["q", "q"], [], [[], []], "duplicate state names"),
], ids=["no-states", "no-actions", "duplicate-states", "duplicate-actions", "missing-row",
        "missing-action", "not-a-dist", "wrong-width", "duplicate-states-and-no-actions"])
def test_mdp_rejects_a_malformed_model(states, actions, delta, message):
    with pytest.raises(ValueError, match=message):
        Mdp(states, actions, delta)


def test_mode_query_validation():
    # the question every decider checks first: a known sync mode, a nonempty
    # initial support, and a target of the same width; it hands back the memo
    # the decider answers through, a fresh one when the caller passes none
    t = SupportSet.of(3, [0])
    s0 = SupportSet.of(3, [1])
    cache = {("mec",): None}
    assert _check_question("always", t, s0, cache) is cache
    assert _check_question("always", t, s0, None) == {}
    with pytest.raises(ValueError, match="unknown sync mode 'sometimes'"):
        _check_question("sometimes", t, s0, None)
    with pytest.raises(ValueError, match="initial support must be nonempty"):
        _check_question("always", t, SupportSet(3), None)
    with pytest.raises(ValueError, match="target and initial support widths differ"):
        _check_question("always", t, SupportSet.of(4, [0]), None)


def test_rational_obj_switches_to_log10_past_the_digit_limit():
    assert rational_obj(Fraction(3, 10 ** 4299)) == "3/1" + "0" * 4299
    assert rational_obj(Fraction(-7)) == "-7"
    past = rational_obj(Fraction(1, 10 ** 4300))
    assert past == {"exact": None, "log10": -4300.0}
    assert rational_obj(-(10 ** 4300)) == {"exact": None, "log10": None}


def test_sums_past_the_digit_limit_give_their_log10():
    masses = {k: Fraction(1, 10 ** 900 + k) for k in range(6)}
    with pytest.raises(ValueError, match=r"^distribution does not sum to 1 "
                                         r"\(log10 of the sum: -899\.2"):
        Dist(6, masses)
    uniform = {0: ONE}
    with pytest.raises(ValueError, match=r"^action row \{0: Fraction\(1, 1000.*\(log10 of "
                                         r"the sum: -899\.2"):
        StrategySpec("bad", (0,), 0, ({},), masses)
    # a row whose entries are past the limit names its actions instead
    with pytest.raises(ValueError, match=r"^action row \[0\] is not a distribution "
                                         r"\(does not sum to 1 \(log10 of the sum: -5000\.0\)\)$"):
        StrategySpec("bad", (0,), 0, ({0: {0: Fraction(1, 10 ** 5000)}},), uniform)
