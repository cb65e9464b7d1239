from fractions import Fraction

import pytest

from syncmdp import (Dist, ModelFormatError, StrategySpec, SupportSet,
                     counter_product, format_rational, lift_with_counter,
                     min_initial_probability, min_positive_probability, model_to_obj,
                     parse_model, parse_rational, serialize_model, simulate,
                     uniform_strategy)
from syncmdp.model import _check_question

from conftest import ABSORBING, as_dists, build, exact_counter_product


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("1/1") == 1
    assert parse_rational("7") == 7
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(" 3 / 9 ") == Fraction(1, 3)
    for bad in ("0.5", "1e3", "-1/2", "1/-2", "", "a", "1/0", 5, None):
        with pytest.raises(ModelFormatError):
            parse_rational(bad)


def test_format_rational_roundtrip():
    for text in ("0", "1", "1/2", "355/113"):
        assert format_rational(parse_rational(text)) == text


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
    assert "sums to 2/3" in str(err.value)


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


def test_serialize_roundtrip_identity(drain, funnel, loopback, twophase):
    for pm in (drain, funnel, loopback, twophase):
        again = parse_model(serialize_model(pm))
        assert again.mdp == pm.mdp
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
    assert counter_product(m, 1).succ == m.succ


def test_product_twophase_period_two(twophase):
    m = twophase.mdp
    prod = exact_counter_product(m, 2)
    assert prod.n == 10
    q1_1 = prod.state_index("q1@1")
    q2_0 = prod.state_index("q2@0")
    assert prod.delta[q1_1][0][q2_0] == 1
    assert counter_product(m, 2).succ[q1_1][0] == 1 << q2_0


def test_product_preserves_mass_and_alpha(funnel):
    m = funnel.mdp
    prod = exact_counter_product(m, 3)
    assert prod.n == 3 * m.n
    assert min_positive_probability(prod) == min_positive_probability(m)
    for row in prod.delta:
        for d in row:
            assert sum(d.mass.values()) == 1


def test_lift_with_counter_is_the_index_wise_lift(funnel, twophase):
    for m in (funnel.mdp, twophase.mdp):
        for bits in range(1 << m.n):
            s = SupportSet(m.n, bits)
            for r in range(1, 5):
                for t in range(r):
                    assert lift_with_counter(s, r, t) \
                        == SupportSet.of(m.n * r, (q * r + (r - 1 - t) for q in s))
    with pytest.raises(ValueError):
        lift_with_counter(SupportSet(2, 1), 3, 3)
    with pytest.raises(ValueError):
        counter_product(funnel.mdp, 0)


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
    assert list(SupportSet.full(5) - s) == [1, 2, 4]
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
    assert (d[1], d[2]) == (Fraction(1, 2), 0)


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


def test_mode_query_validation():
    # the question every decider checks first: a known sync mode, a nonempty
    # initial support, and a target of the same width
    t = SupportSet.of(3, [0])
    s0 = SupportSet.of(3, [1])
    _check_question("always", t, s0)
    with pytest.raises(ValueError, match="unknown sync mode 'sometimes'"):
        _check_question("sometimes", t, s0)
    with pytest.raises(ValueError, match="initial support must be nonempty"):
        _check_question("always", t, SupportSet(3))
    with pytest.raises(ValueError, match="target and initial support widths differ"):
        _check_question("always", t, SupportSet.of(4, [0]))
