"""Deciders for sure, almost-sure and limit-sure winning of the four
synchronizing modes, with certificates and the witness strategies the
characterizations support directly. This module only decides: the oracle
battery (`checks`) proves each yes-certificate on support masks itself.

A verdict does not repeat its question: a coinciding mode returns the stronger
mode's verdict itself.

All deciders work on initial supports (winning is support-only). Every call
answers through a memo, the `cache` dict of one analysis (a fresh one when a
call passes none). Keyed by set bits, it holds what the sub-queries of a full
matrix run read again: verdicts, predecessor lassos and their PreMap, limit-sure
eventually answers, safety regions and the almost-sure regions of the counter
products M x [r].

Almost-sure weakly searches for T' <= T with (1) s0 limit-sure eventually in T'
and (2) T' limit-sure eventually in Pre(T'). Let W(Y) be the states q with {q}
limit-sure eventually in Y, and F(X) = T & W(Pre(X)). Limit-sure eventually is
monotone in the initial support, so every T' passing (2) has T' <= F(T'); F is
monotone, so by Knaster-Tarski every such T' lies in Z = gfp F: the search walks
the subsets of Z, and prunes nothing else.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_

from .model import (DEFAULT_LIMITS, ONE, GuardExceeded, StrategySpec, SupportSet, Verdict,
                    _cached, _check_question, _uniform_row)
from .regions import (PreMap, almost_sure_reach_region, pre_lasso, reach_layers,
                      sure_safety_region)


def _pre_map(m, cache):
    return _cached(cache, ("pre",), lambda: PreMap(m))


def _lasso(m, t, cache, limits):
    return _cached(cache, ("pre-lasso", t.bits),
                   lambda: pre_lasso(m, t, limits.max_lasso, _pre_map(m, cache)))


def _product_region(m, lasso, cache):
    """Almost-sure region for reaching R x {0} in the counter product M x [r],
    where R is the recurrent support of the predecessor lasso and r its period."""
    r, big_r = lasso.period, lasso.supports[lasso.start]
    return _cached(cache, ("product-as-region", r, big_r.bits),
                   lambda: almost_sure_reach_region(m, big_r, r))


def _safety(m, t, cache):
    return _cached(cache, ("safety", t.bits), lambda: sure_safety_region(m, t))


def _subsets_desc(z, t, limits):
    """Bit masks of the nonempty subsets of the fixpoint bound z of target t in
    decreasing cardinality, then index order; past z itself, a z wider than the
    subset-width guard trips."""
    members = [1 << q for q in z]
    if members:
        yield z.bits
    if len(members) > limits.subset_width:
        raise GuardExceeded("subset-search",
                            f"fixpoint bound has {len(z)} of the target's {len(t)} states, "
                            f"guard is {limits.subset_width}")
    for size in range(len(members) - 1, 0, -1):
        yield from map(sum, combinations(members, size))


def _forced_rows(m, positions):
    """One forced-row dict per position, a list of (sources, into) pairs: each source
    state plays the Dirac row (one shared object per action) of its first action
    keeping all its successors in `into`. One action forces nothing (the default row)."""
    dirac = [{a: ONE} for a in range(m.action_count)]
    return tuple({q: next(dirac[a] for a, s in enumerate(m.succ[q]) if s & into.bits == s)
                  for sources, into in pairs for q in sources}
                 if m.action_count > 1 else {} for pairs in positions)


def _countdown_strategy(m, lasso, k, r=None):
    """Countdown through the predecessor lasso Pre^j of a set: level j >= 1 pushes
    the mass of Pre^j into Pre^(j-1), level 0 forces nothing. The memory runs k, ...,
    0 and stays at 0; with a period r, ("down", k..1), then ("cyc", phi) at level
    r - phi cycles the recurrent set through its r-step loop."""
    if r is None:
        label, memory = f"countdown[{k}]", tuple(range(k, -1, -1))
        levels = memory
    else:
        label = f"countdown-cycle[{k},{r}]"
        memory = tuple([("down", j) for j in range(k, 0, -1)] + [("cyc", phi) for phi in range(r)])
        levels = [*range(k, 0, -1), *range(r, 0, -1)]
    rows = _forced_rows(m, [[(lasso.at(j), lasso.at(j - 1))] if j else [] for j in levels])
    return StrategySpec(label, memory, k, rows, _uniform_row(m))


def _reach_then_stay_strategy(m, safe, layers, label):
    """Memoryless: walk down the attractor layers into `safe`, then stay (with
    layers == [safe], the stay-safe witness of sure always)."""
    pairs = [(safe, safe)] + [(layer - lower, lower) for lower, layer in zip(layers, layers[1:])]
    return StrategySpec(label, (0,), 0, _forced_rows(m, [pairs]), _uniform_row(m))


def decide_sure(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Sure winning for the given synchronizing mode from the support s0.

    Memoized per analysis: the almost-sure and limit-sure deciders delegate
    here for always and eventually, and share the verdict and its witness.
    """
    cache = _check_question(sync_mode, t, s0, cache)
    return _cached(cache, ("sure", sync_mode, t.bits, s0.bits),
                   lambda: _decide_sure(m, sync_mode, t, s0, cache, limits))


def _decide_sure(m, sync_mode, t, s0, cache, limits):
    if sync_mode == "eventually":
        lasso = _lasso(m, t, cache, limits)
        k = next((i for i, sup in enumerate(lasso.distinct()) if s0 <= sup), None)
        if k is None:
            return Verdict(False)
        return Verdict(True, witness=_countdown_strategy(m, lasso, k),
                       certificate={"kind": "sure-eventually", "k": k})

    if sync_mode == "weakly":
        # Pre is monotone, so the recurring subsets S of t (S <= Pre^r(S), r >= 1) are
        # closed under union (Pre^lcm(r1, r2) keeps both) and s0 <= Pre^k(S) holds for
        # one iff it holds for the largest, T*: the gfp of S -> S & Pre^L(S), L a multiple
        # of the period past the start of S's pre-lasso. Each round drops a state.
        s = t
        while s:
            sl = _lasso(m, s, cache, limits)
            r = next((i for i in range(1, len(sl.supports)) if s <= sl.supports[i]), None)
            if r is not None:
                break
            s = s & sl.at((sl.start + 1) * sl.period)
        k = next((i for i, sup in enumerate(sl.distinct()) if s0 <= sup), None) if s else None
        if k is None:
            return Verdict(False)
        witness = _countdown_strategy(m, sl, k, r)
        cert = {"kind": "sure-weakly", "set": s, "k": k, "r": r}
        return Verdict(True, witness=witness, certificate=cert)

    if sync_mode == "always":
        region = _safety(m, t, cache)
        if s0 <= region:
            witness = _reach_then_stay_strategy(m, region, [region], "stay-safe")
            return Verdict(True, witness=witness, certificate={"kind": "sure-always",
                                                                "region": region})
        return Verdict(False, certificate={"kind": "sure-always", "region": region})

    safe = _safety(m, t, cache)   # strongly
    layers = reach_layers(m, safe)
    region = layers[-1]
    cert = {"kind": "sure-strongly", "safety_region": safe, "reach_region": region}
    if s0 <= region:
        return Verdict(True, certificate=cert,
                       witness=_reach_then_stay_strategy(m, safe, layers, "attract-then-stay"))
    return Verdict(False, certificate=cert)


def _limit_eventually(m, t, s0, cache, limits):
    """Memoized core of limit-sure eventually: "sure" when s0 lies inside some
    Pre^i(t), else the first counter phase whose lift of s0 lies in the
    product region, else None (not limit-sure winning). Counter tt is bit
    r-1-tt of each state's block, so the first phase is the highest bit set in
    all of s0's blocks."""
    def make():
        lasso = _lasso(m, t, cache, limits)
        if any(s0 <= sup for sup in lasso.distinct()):
            return "sure"
        region, r = _product_region(m, lasso, cache).bits, lasso.period
        phase = r - reduce(and_, (region >> q * r & (1 << r) - 1 for q in s0)).bit_length()
        return phase if phase < r else None

    return _cached(cache, ("limit-event", t.bits, s0.bits), make)


def _weakly_bound(m, t, cache, limits):
    """Z = gfp of X -> T & W(Pre(X)), iterated down from T: each round keeps the
    states q of X with {q} limit-sure eventually in Pre(X), so at most |T| rounds."""
    pre_map, x = _pre_map(m, cache), t
    while True:
        y = SupportSet(t.width, pre_map[x.bits])
        nxt = SupportSet.of(t.width, [q for q in x if _limit_eventually(
            m, y, SupportSet(t.width, 1 << q), cache, limits) is not None])
        if nxt == x:
            return x
        x = nxt


def _expose_failing_subsupport(m, t, s0, cache, limits):
    """Greedy minimal sub-support that is still not limit-sure eventually winning."""
    cur = s0
    for q in list(cur):
        if len(cur) > 1:
            cand = cur - SupportSet.of(cur.width, [q])
            if _limit_eventually(m, t, cand, cache, limits) is None:
                cur = cand
    return cur


def _coinciding(m, sync_mode, t, s0, cache, limits):
    """The verdict, itself, of the stronger winning mode a mode coincides with:
    limit-sure equals almost-sure for weakly and strongly, and all three classic
    winning modes coincide for always."""
    decide = decide_sure if sync_mode == "always" else decide_almost_sure
    return decide(m, sync_mode, t, s0, cache=cache, limits=limits)


def decide_limit_sure(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Limit-sure winning; weakly/strongly/always delegate to their coinciding modes."""
    cache = _check_question(sync_mode, t, s0, cache)
    if sync_mode != "eventually":
        return _coinciding(m, sync_mode, t, s0, cache, limits)

    lasso = _lasso(m, t, cache, limits)
    k, r = lasso.start, lasso.period
    base = {"k": k, "r": r, "R": lasso.supports[k]}
    via = _limit_eventually(m, t, s0, cache, limits)
    if via == "sure":
        sure_v = decide_sure(m, "eventually", t, s0, cache=cache, limits=limits)
        cert = {"kind": "limit-sure-eventually", "via": "sure",
                "sure_k": sure_v.certificate["k"], **base}
        return Verdict(True, witness=sure_v.witness, certificate=cert)
    if via is not None:
        cert = {"kind": "limit-sure-eventually", "via": "product", "phase": via,
                "product_region": _product_region(m, lasso, cache), **base}
        return Verdict(True, certificate=cert)
    exposed = _expose_failing_subsupport(m, t, s0, cache, limits)
    cert = {"kind": "limit-sure-eventually", "via": None,
            "failing_subsupport": exposed, **base}
    return Verdict(False, certificate=cert)


def decide_almost_sure(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Almost-sure winning for the given synchronizing mode.

    Memoized per analysis like `decide_sure`: limit-sure weakly and strongly
    and almost-sure eventually delegate here and share the verdict.
    """
    cache = _check_question(sync_mode, t, s0, cache)
    return _cached(cache, ("almost-sure", sync_mode, t.bits, s0.bits),
                   lambda: _decide_almost_sure(m, sync_mode, t, s0, cache, limits))


def _decide_almost_sure(m, sync_mode, t, s0, cache, limits):
    if sync_mode == "weakly":
        # A T' passing condition (2) lies in the gfp Z of the module docstring, and
        # the subsets of Z keep their order among those of T. Mass in T' is mass in
        # any superset, so when s0 cannot limit-sure reach T, or Z, no subset passes.
        # T''s pre-lasso put Pre(T') in the Pre map, and Pre(T')'s lasso is T''s shifted by one.
        if _limit_eventually(m, t, s0, cache, limits) is None:
            return Verdict(False)
        pre_map = _pre_map(m, cache)
        z = _weakly_bound(m, t, cache, limits)
        for bits in _subsets_desc(z, t, limits):
            t2 = SupportSet(t.width, bits)
            if _limit_eventually(m, t2, s0, cache, limits) is None:
                if t2 == z:
                    break
            elif _limit_eventually(m, SupportSet(t.width, pre_map[bits]), t2,
                                   cache, limits) is not None:
                return Verdict(True, certificate={"kind": "almost-sure-weakly", "t_prime": t2})
        return Verdict(False)

    if sync_mode == "eventually":
        sure_v = decide_sure(m, "eventually", t, s0, cache=cache, limits=limits)
        if sure_v.answer:
            cert = {"kind": "almost-sure-eventually", "via": "sure",
                    "sure_k": sure_v.certificate["k"]}
            return Verdict(True, witness=sure_v.witness, certificate=cert)
        weak = decide_almost_sure(m, "weakly", t, s0, cache=cache, limits=limits)
        if weak.answer:
            cert = {"kind": "almost-sure-eventually", "via": "weakly",
                    "t_prime": weak.certificate["t_prime"]}
            return Verdict(True, certificate=cert)
        return Verdict(False)

    if sync_mode == "always":
        return _coinciding(m, sync_mode, t, s0, cache, limits)

    safe = _safety(m, t, cache)   # strongly
    region = almost_sure_reach_region(m, safe)
    cert = {"kind": "almost-sure-strongly", "safety_region": safe,
            "as_reach_region": region}
    return Verdict(s0 <= region, certificate=cert)
