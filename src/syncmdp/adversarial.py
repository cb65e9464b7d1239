"""Positive and bounded winning modes: support analysis under uniform play,
end-component conditions, the freezing witness strategy, and an independent
matrix-power verifier for support-lasso claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .model import (DEFAULT_LIMITS, StrategySpec, SupportSet, Verdict, _cached,
                    _check_question, _iter_bits, _uniform_row, uniform_strategy)
from .regions import _closure, iterate_lasso, mec_decomposition


def rows_image(rows, s):
    """Row-or of a boolean matrix over a source support."""
    bits = 0
    for q in s:
        bits |= rows[q]
    return SupportSet(s.width, bits)


def post_image(m, s):
    """One-step support image when every action is played with positive probability."""
    return rows_image(m.post, s)


def support_lasso(m, s0, max_len=None):
    """Support sequence under the all-actions uniform strategy, as a lasso from s0."""
    if not s0:
        raise ValueError("initial support must be nonempty")
    return iterate_lasso(lambda s: post_image(m, s), s0, max_len, "support-lasso")


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


def _bool_mul(a, b):
    return [reduce(or_, (b[q] for q in _iter_bits(row)), 0) for row in a]


def matrix_squares(m, i):
    """M^(2^j) for each j with 2^j <= i (M's rows are m.post), each the square
    of the one before."""
    squares = []
    while i >> len(squares):
        squares.append(_bool_mul(squares[-1], squares[-1]) if squares else list(m.post))
    return squares


def matrix_power_witness(m, i):
    """Exact-step boolean reachability M^i (M's rows are m.post), by successive squaring."""
    if i < 0:
        raise ValueError("exponent must be nonnegative")
    result = [1 << q for q in range(m.n)]
    for j, square in enumerate(matrix_squares(m, i)):
        if i >> j & 1:
            result = _bool_mul(result, square)
    return tuple(result)


@dataclass(frozen=True)
class AdvVerdictDetail:
    """Support-lasso facts behind a positive/bounded verdict.

    condition1: every support (prefix and loop) meets the target.
    condition2: every loop support meets the target inside the end components.
    failing_index is the smallest failing index of the condition that decided a
    "no" (for existential conditions, the first index the condition ranges
    over, since every index fails). graph_test is the reachable-and-self-
    reaching test, reported on every positive weakly verdict (None elsewhere)
    beside the definition-faithful answer, which it does not decide.
    """

    condition1: bool
    condition2: bool
    failing_index: int | None
    loop_start: int
    period: int
    switch: int
    graph_test: bool | None = None


def _first_missing(supports, t, offset=0):
    return next((offset + i for i, s in enumerate(supports) if not s & t), None)


def _graph_test_weakly(m, lasso, t):
    """Some reachable target state reaches itself in >= 1 step of the all-actions graph."""
    reachable = reduce(or_, lasso.distinct())
    return any(_closure(m.post[q], m.post) >> q & 1 for q in reachable & t)


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
    ask it of the target inside the end components on the loop.
    """
    _check_question(sync_mode, t, s0)
    lasso = _support_lasso(m, s0, cache, limits)
    mec = _mec(m, cache)
    supports, loop = lasso.distinct(), lasso.loop()
    l, p, sw = lasso.start, lasso.period, switch_point(lasso)
    te = t & mec.union
    cond1 = all(s & t for s in supports)
    cond2 = all(s & te for s in loop)
    hit = graph_test = None

    if sync_mode == "eventually":
        # bounded coincides with positive here; uniform play is a witness of both
        hit = next((i for i, s in enumerate(supports) if s & t), None)
        failing = None if hit is not None else 0
    elif sync_mode == "weakly" and win == "positive":
        hit = next((l + i for i, s in enumerate(loop) if s & t), None)
        failing = None if hit is not None else l
        graph_test = _graph_test_weakly(m, lasso, t)
    elif sync_mode == "weakly":
        hit = next((i for i, s in enumerate(supports) if s & te), None)
        failing = None if hit is not None else 0
    elif sync_mode == "strongly":
        failing = _first_missing(loop, t if win == "positive" else te, offset=l)
    else:  # always
        failing = _first_missing(supports, t)
        if failing is None and win == "bounded":
            failing = _first_missing(loop, te, offset=l)
    answer = failing is None

    detail = AdvVerdictDetail(cond1, cond2, failing, l, p, sw, graph_test=graph_test)
    cert = {"kind": f"{win}-{sync_mode}", "loop_start": l, "period": p}
    if win == "bounded":
        cert["switch"] = sw
    if answer and hit is not None:
        cert["hit_index"] = hit
    witness = None
    if answer and win == "bounded" and sync_mode != "eventually":
        witness = _freezing(m, s0, lasso, mec, cache)
    elif answer:
        witness = _uniform(m, cache)
    return Verdict(answer, witness=witness, certificate=cert, detail=detail)
