"""Positive and bounded winning modes: support analysis under uniform play,
end-component conditions and the freezing witness strategy. A verdict's
certificate is a plain dict of the support-lasso facts; a "no" names the
failing index on the lasso. This module only decides: the oracle battery
(`checks`) verifies the support lasso with its own Post step and boolean
matrix powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from .model import (DEFAULT_LIMITS, StrategySpec, Verdict, _cached, _check_question,
                    _iter_bits, _uniform_row, uniform_strategy)
from .regions import iterate_lasso, mec_decomposition


def _post(m, bits):
    """The support mask after one step from `bits` when every action is played."""
    return reduce(or_, (m.post[q] for q in _iter_bits(bits)), 0)


def support_lasso(m, s0, max_len=DEFAULT_LIMITS.max_lasso):
    """Support sequence under the all-actions uniform strategy, as a lasso from s0."""
    if not s0:
        raise ValueError("initial support must be nonempty")
    return iterate_lasso(lambda s: _post(m, s), s0, max_len, "support-lasso")


def _support_lasso(m, s0, cache, limits):
    return _cached(cache, ("support-lasso", s0.bits),
                   lambda: support_lasso(m, s0, max_len=limits.max_lasso))


def _mec(m, cache):
    return _cached(cache, ("mec",), lambda: mec_decomposition(m))


def _uniform(m, cache):
    return _cached(cache, ("uniform",), lambda: uniform_strategy(m))


def _freezing(m, s0, lasso, mec, cache):
    return _cached(cache, ("freezing", s0.bits), lambda: freezing_strategy(m, lasso, mec))


def switch_point(lasso):
    """Freezing switch index: the concrete lasso closure l + p."""
    return lasso.start + lasso.period


def _lasso_misses(lasso, t, te):
    """The indices of the distinct supports of the lasso that miss t, and of
    those that miss te: the one scan behind the positive/bounded verdicts."""
    supports = [s.bits for s in lasso.distinct()]
    return [frozenset(i for i, s in enumerate(supports) if not s & x.bits) for x in (t, te)]


def freezing_strategy(m, lasso, mec):
    """Uniform play until the lasso closes, then only end-component-internal actions.

    The memory is a step counter saturating at the switch point, the only
    position with forced rows; transient states keep playing all actions
    uniformly after the switch.
    """
    sw = switch_point(lasso)
    frozen = {q: {a: Fraction(1, len(acts)) for a in acts}
              for q, acts in enumerate(mec.internal_actions) if acts}
    return StrategySpec("freezing", tuple(range(sw + 1)), sw, ({},) * sw + (frozen,),
                        _uniform_row(m))


def decide_positive(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Membership in the positive winning mode, computed on the support lasso."""
    return _decide(m, "positive", sync_mode, t, s0, cache, limits)


def decide_bounded(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Membership in the bounded winning mode (mass bounded away from zero)."""
    return _decide(m, "bounded", sync_mode, t, s0, cache, limits)


def _decide(m, win, sync_mode, t, s0, cache, limits):
    """Positive or bounded membership from conditions on the support lasso.

    Positive modes ask whether the target meets the supports; bounded modes
    ask it of the target inside the end components on the loop. The cells of
    one (s0, t) read one memoized scan: the supports that miss either target.
    The certificate holds the lasso's loop_start and period (and switch, for
    bounded), then the hit_index of a "yes" found by a search, or the
    failing_index of a "no": the first support the deciding condition fails at
    (for an existential condition, the first index it searched).
    """
    cache = _check_question(sync_mode, t, s0, cache)
    lasso = _support_lasso(m, s0, cache, limits)
    mec = _mec(m, cache)
    miss, miss_te = _cached(cache, ("lasso-misses", s0.bits, t.bits),
                            lambda: _lasso_misses(lasso, t, t & mec.union))
    l, p = lasso.start, lasso.period
    hit = None

    if sync_mode == "eventually":
        # bounded coincides with positive here; uniform play is a witness of both
        hit = next((i for i in range(l + p) if i not in miss), None)
        failing = None if hit is not None else 0
    elif sync_mode == "weakly" and win == "positive":
        hit = next((i for i in range(l, l + p) if i not in miss), None)
        failing = None if hit is not None else l
    elif sync_mode == "weakly":
        hit = next((i for i in range(l + p) if i not in miss_te), None)
        failing = None if hit is not None else 0
    elif sync_mode == "strongly":
        misses = miss if win == "positive" else miss_te
        failing = min((i for i in misses if i >= l), default=None)
    else:  # always
        failing = min(miss, default=None)
        if failing is None and win == "bounded":
            failing = min((i for i in miss_te if i >= l), default=None)
    answer = failing is None

    cert = {"kind": f"{win}-{sync_mode}", "loop_start": l, "period": p}
    if win == "bounded":
        cert["switch"] = switch_point(lasso)
    if not answer:
        cert["failing_index"] = failing
    elif hit is not None:
        cert["hit_index"] = hit
    witness = None
    if answer and win == "bounded" and sync_mode != "eventually":
        witness = _freezing(m, s0, lasso, mec, cache)
    elif answer:
        witness = _uniform(m, cache)
    return Verdict(answer, witness=witness, certificate=cert)
