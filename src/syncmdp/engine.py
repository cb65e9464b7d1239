"""Full-matrix analysis of one model: every synchronizing mode against every
winning mode, the bounds of each cell, and an internal consistency gate over
the known identities between the twenty verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversarial import _mec, _support_lasso, decide_bounded, decide_positive, switch_point
from .bounds import attach_bounds
from .classic import _lasso, decide_almost_sure, decide_limit_sure, decide_sure
from .model import (DEFAULT_LIMITS, SYNC_MODES, min_initial_probability,
                    min_positive_probability)


class ConsistencyError(RuntimeError):
    """The verdict matrix violated an identity that must hold; an engine bug."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ModelAnalysis:
    """Everything one model/target pair yields: constants, lassos, verdicts, bounds."""

    mdp: object
    initial: object
    target: object
    s0: object
    alpha: object
    alpha0: object
    target_lasso: object      # iterated-predecessor lasso of the target
    lasso: object             # support lasso under uniform play from s0
    mec: object
    switch: int
    verdicts: dict            # (sync_mode, win_mode) -> Verdict
    bounds: dict              # (sync_mode, win_mode) -> [BoundCert]
    cache: dict               # the deciders' memo

    def answer(self, sync_mode, win_mode):
        return self.verdicts[(sync_mode, win_mode)].answer


def check_consistency(verdicts):
    """Violated identities among the twenty verdicts ([] when all hold)."""
    def a(mode, win):
        return verdicts[(mode, win)].answer

    bad = []
    for mode in SYNC_MODES:
        if a(mode, "sure") and not a(mode, "almost-sure"):
            bad.append(f"sure {mode} without almost-sure {mode}")
        if a(mode, "almost-sure") and not a(mode, "limit-sure"):
            bad.append(f"almost-sure {mode} without limit-sure {mode}")
        if a(mode, "bounded") and not a(mode, "positive"):
            bad.append(f"bounded {mode} without positive {mode}")
    for mode in ("weakly", "strongly"):
        if a(mode, "limit-sure") != a(mode, "almost-sure"):
            bad.append(f"limit-sure and almost-sure differ for {mode}")
    if not (a("always", "sure") == a("always", "almost-sure") == a("always", "limit-sure")):
        bad.append("the three classic modes differ for always")
    if a("eventually", "almost-sure") != (a("eventually", "sure") or a("weakly", "almost-sure")):
        bad.append("almost-sure eventually is not sure-eventually or almost-sure-weakly")
    for win in ("positive", "bounded"):
        if a("always", win) and not a("strongly", win):
            bad.append(f"{win} always without {win} strongly")
        if a("strongly", win) and not a("weakly", win):
            bad.append(f"{win} strongly without {win} weakly")
        if a("weakly", win) and not a("eventually", win):
            bad.append(f"{win} weakly without {win} eventually")
    if a("eventually", "positive") != a("eventually", "bounded"):
        bad.append("positive and bounded eventually differ")
    if a("always", "bounded") != (a("always", "positive") and a("strongly", "bounded")):
        bad.append("bounded always is not positive-always and bounded-strongly")
    return bad


def analyze(m, d0, target, *, limits=None):
    """Run the full 4x5 verdict matrix with bounds; raises on gate violations."""
    limits = limits or DEFAULT_LIMITS
    s0 = d0.support()
    cache = {}
    # seeded up front, so a guard trips in this stage order whatever cell runs first
    target_lasso = _lasso(m, target, cache, limits)
    lasso = _support_lasso(m, s0, cache, limits)
    mec = _mec(m, cache)

    deciders = {"sure": decide_sure, "almost-sure": decide_almost_sure,
                "limit-sure": decide_limit_sure, "positive": decide_positive,
                "bounded": decide_bounded}
    verdicts = {(mode, win): decide(m, mode, target, s0, cache=cache, limits=limits)
                for mode in SYNC_MODES for win, decide in deciders.items()}
    bounds = attach_bounds(verdicts.values(), m, d0)

    violations = check_consistency(verdicts)
    if violations:
        raise ConsistencyError(violations)

    return ModelAnalysis(
        mdp=m, initial=d0, target=target, s0=s0,
        alpha=min_positive_probability(m), alpha0=min_initial_probability(d0),
        target_lasso=target_lasso, lasso=lasso, mec=mec, switch=switch_point(lasso),
        verdicts=verdicts, bounds=bounds, cache=cache)
