from fractions import Fraction

import pytest

from syncmdp import Verdict, analyze, example_model
from syncmdp.engine import ConsistencyError, check_consistency
from syncmdp.model import SYNC_MODES, WIN_MODES, ModeQuery, SupportSet


def _fake_matrix(answers):
    t = SupportSet.of(2, [0])
    s0 = SupportSet.of(2, [1])
    return {(mode, win): Verdict(ModeQuery(mode, win, t, s0), answers(mode, win))
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
