import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from syncmdp import (Verdict, analyze, decide_almost_sure, decide_bounded,
                     decide_limit_sure, decide_positive, decide_sure, example_model)
from syncmdp import classic, engine, model
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus
from syncmdp.engine import check_consistency
from syncmdp.model import SYNC_MODES, WIN_MODES, SupportSet

DECIDERS = (decide_sure, decide_almost_sure, decide_limit_sure, decide_positive,
            decide_bounded)


def _fake_matrix(answers):
    return {(mode, win): Verdict(answers(mode, win))
            for mode in SYNC_MODES for win in WIN_MODES}


def test_gate_accepts_all_yes_and_all_no():
    assert check_consistency(_fake_matrix(lambda m, w: True)) == []
    assert check_consistency(_fake_matrix(lambda m, w: False)) == []


def test_gate_flags_lattice_violation():
    def answers(mode, win):
        return mode == "eventually" and win == "sure"
    bad = check_consistency(_fake_matrix(answers))
    assert any("sure eventually without almost-sure" in item for item in bad)


def test_gate_flags_mode_chain_violation():
    def answers(mode, win):
        return win == "bounded" and mode == "always"
    bad = check_consistency(_fake_matrix(answers))
    assert any("bounded always without" in item for item in bad)


def test_gate_flags_eventually_identity():
    def answers(mode, win):
        return mode == "eventually" and win == "almost-sure"
    bad = check_consistency(_fake_matrix(answers))
    assert any("almost-sure eventually" in item for item in bad)


def test_analysis_carries_model_constants(funnel):
    an = analyze(funnel.mdp, funnel.initial, funnel.targets["target"])
    assert an.alpha == Fraction(1, 2)
    assert an.alpha0 == 1
    assert an.switch == an.lasso.start + an.lasso.period == 4
    assert len(an.verdicts) == 20
    assert an.target_lasso.start == 1 and an.target_lasso.period == 1


@pytest.mark.parametrize("decide", DECIDERS, ids=lambda f: f.__name__)
def test_deciders_reject_empty_support_and_unknown_mode(funnel, decide):
    # and a target and initial support of different widths, in every sync mode
    m, t = funnel.mdp, funnel.targets["target"]
    s0, wide = funnel.initial.support(), SupportSet.of(m.n + 1, [0])
    with pytest.raises(ValueError, match="initial support must be nonempty"):
        decide(m, "eventually", t, SupportSet(m.n))
    with pytest.raises(ValueError, match="unknown sync mode 'sometimes'"):
        decide(m, "sometimes", t, s0)
    for mode in SYNC_MODES:
        for target, support in ((t, wide), (wide, s0)):
            with pytest.raises(ValueError, match="target and initial support widths differ"):
                decide(m, mode, target, support)
        decide(m, mode, t, s0)


def test_coinciding_cells_share_their_stronger_cells_verdict():
    # limit-sure = almost-sure for weakly and strongly; sure = almost-sure =
    # limit-sure for always: the weaker cells hold the stronger cell's verdict
    cases = [(pm.mdp, pm.initial, pm.targets["target"])
             for pm in map(example_model, EXAMPLE_MODELS)]
    cases += [(inst.mdp, inst.initial, inst.target) for inst in corpus(20260810, 20)]
    for m, d0, t in cases:
        v = analyze(m, d0, t).verdicts
        for mode in ("weakly", "strongly"):
            assert v[(mode, "limit-sure")] is v[(mode, "almost-sure")]
        assert v[("always", "almost-sure")] is v[("always", "sure")]
        assert v[("always", "limit-sure")] is v[("always", "sure")]


def test_verdicts_are_immutable_and_bounds_cover_every_cell(funnel):
    an = analyze(funnel.mdp, funnel.initial, funnel.targets["target"])
    verdict = an.verdicts[("always", "sure")]
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.answer = not verdict.answer
    assert set(an.bounds) == {(mode, win) for mode in SYNC_MODES for win in WIN_MODES}
    assert [b.kind for b in an.bounds[("always", "sure")]] == ["eps_always"]


def test_analyze_calls_each_decider_once_per_cell(funnel, monkeypatch):
    calls = Counter()

    def counted(decide):
        def wrapper(*args, **kwargs):
            calls[decide.__name__] += 1
            return decide(*args, **kwargs)
        return wrapper

    for decide in DECIDERS:
        monkeypatch.setattr(engine, decide.__name__, counted(decide))
    analyze(funnel.mdp, funnel.initial, funnel.targets["target"])
    assert calls == {decide.__name__: len(SYNC_MODES) for decide in DECIDERS}


def test_each_witness_is_built_once_per_analysis(monkeypatch):
    # the deciders share one memo: a witness several cells carry is built once,
    # and the sure and almost-sure verdicts of each sync mode are decided once
    built, sure, almost_sure = [], Counter(), Counter()
    validate = model.StrategySpec.__post_init__

    def counting_validate(strategy):
        built.append(strategy.label)
        validate(strategy)

    def counting(decide, tally):
        def wrapper(m, sync_mode, *args):
            tally[sync_mode] += 1
            return decide(m, sync_mode, *args)
        return wrapper

    monkeypatch.setattr(model.StrategySpec, "__post_init__", counting_validate)
    monkeypatch.setattr(classic, "_decide_sure", counting(classic._decide_sure, sure))
    monkeypatch.setattr(classic, "_decide_almost_sure",
                        counting(classic._decide_almost_sure, almost_sure))
    cases = [(pm.mdp, pm.initial, pm.targets["target"])
             for pm in map(example_model, EXAMPLE_MODELS)]
    cases += [(inst.mdp, inst.initial, inst.target) for inst in corpus(20260810, 20)]
    for m, d0, t in cases:
        built.clear()
        sure.clear()
        almost_sure.clear()
        a = analyze(m, d0, t)
        witnesses = {id(v.witness): v.witness.label for v in a.verdicts.values() if v.witness}
        assert sorted(built) == sorted(witnesses.values())
        assert len(set(built)) == len(built)
        assert sure == almost_sure == Counter(SYNC_MODES)
