"""Deciders for sure, almost-sure and limit-sure winning of the four
synchronizing modes, with certificates and the witness strategies the
characterizations support directly. This module only decides: the oracle
battery (`checks`) proves each yes-certificate on support masks itself.

A verdict does not repeat its question: a coinciding mode returns the stronger
mode's verdict itself.

All deciders work on initial supports (winning is support-only). The memo
`cache` dict of one analysis, keyed by set bits, holds predecessor lassos, the
PreMap they step through, regions and counter-product skeletons across the
many sub-queries a full matrix run triggers.

Almost-sure weakly searches for T' <= T with (1) s0 limit-sure eventually in T'
and (2) T' limit-sure eventually in Pre(T'). Let W(Y) be the states q with {q}
limit-sure eventually in Y, and F(X) = T & W(Pre(X)). Limit-sure eventually is
monotone in the initial support, so every T' passing (2) has T' <= F(T'); F is
monotone, so by Knaster-Tarski every such T' lies in Z = gfp F, and the search
walks only the subsets of Z.
"""

from __future__ import annotations

from itertools import combinations

from .model import (DEFAULT_LIMITS, ONE, GuardExceeded, StrategySpec, SupportSet, Verdict,
                    _cached, _check_question, _uniform_row, counter_product, lift_with_counter)
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

    def make():
        prod = _cached(cache, ("product", r), lambda: counter_product(m, r))
        return almost_sure_reach_region(prod, lift_with_counter(big_r, r, 0))
    return _cached(cache, ("product-as-region", r, big_r.bits), make)


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


def _step_into(m, q, target, dirac):
    """The Dirac row (one shared object per action, from `dirac`) of the first
    action keeping every successor of q inside `target`."""
    return next(dirac[a] for a, s in enumerate(m.succ[q]) if s & target.bits == s)


def _countdown_rows(m, chain, levels):
    """Forced rows of a countdown through `chain`: at level j >= 1, every state of
    chain[j] steps into chain[j-1]; level 0 forces nothing, and neither does a
    one-action model, whose Dirac row is the default row."""
    dirac = [{a: ONE} for a in range(m.action_count)]
    return tuple({q: _step_into(m, q, chain[j - 1], dirac) for q in chain[j]}
                 if j and m.action_count > 1 else {} for j in levels)


def synthesize_sure_eventually_strategy(m, t, s0, k, *, cache=None, limits=DEFAULT_LIMITS):
    """Countdown witness: at memory j, push all mass from Pre^j(T) into Pre^(j-1)(T).

    Requires s0 inside the k-fold predecessor of t; simulation then puts the
    whole mass in t at step k exactly.
    """
    lasso = _lasso(m, t, cache, limits)
    chain = [lasso.at(j) for j in range(k + 1)]
    if not s0 <= chain[k]:
        raise ValueError("initial support is not contained in the k-fold predecessor")
    memory = tuple(range(k, -1, -1))
    return StrategySpec(f"countdown[{k}]", memory, k, _countdown_rows(m, chain, memory),
                        _uniform_row(m))


def _reach_then_stay_strategy(m, safe, layers, label):
    """Memoryless: walk down the attractor layers into `safe`, then stay (with
    layers == [safe], the stay-safe witness of sure always). A one-action model
    forces nothing: its Dirac row is the default row."""
    forced = {}
    if m.action_count > 1:
        dirac = [{a: ONE} for a in range(m.action_count)]
        forced = {q: _step_into(m, q, safe, dirac) for q in safe}
        for lower, layer in zip(layers, layers[1:]):
            forced.update((q, _step_into(m, q, lower, dirac)) for q in layer - lower)
    return StrategySpec(label, (0,), 0, (forced,), _uniform_row(m))


def _cycle_strategy(m, k, r, lasso_of_s):
    """Countdown into the recurrent set, then cycle it through its r-step loop.

    Memory ("down", j) pushes Pre^j into Pre^(j-1); ("cyc", phi) sits at level r - phi.
    """
    chain = [lasso_of_s.at(j) for j in range(max(k, r) + 1)]
    memory = [("down", j) for j in range(k, 0, -1)] + [("cyc", phi) for phi in range(r)]
    levels = [j if kind == "down" else r - j for kind, j in memory]
    return StrategySpec(f"countdown-cycle[{k},{r}]", tuple(memory), k,
                        _countdown_rows(m, chain, levels), _uniform_row(m))


def decide_sure(m, sync_mode, t, s0, *, cache=None, limits=DEFAULT_LIMITS):
    """Sure winning for the given synchronizing mode from the support s0.

    Memoized per analysis: the almost-sure and limit-sure deciders delegate
    here for always and eventually, and share the verdict and its witness.
    """
    _check_question(sync_mode, t, s0)
    return _cached(cache, ("sure", sync_mode, t.bits, s0.bits),
                   lambda: _decide_sure(m, sync_mode, t, s0, cache, limits))


def _decide_sure(m, sync_mode, t, s0, cache, limits):
    if sync_mode == "eventually":
        lasso = _lasso(m, t, cache, limits)
        k = next((i for i, sup in enumerate(lasso.distinct()) if s0 <= sup), None)
        if k is None:
            return Verdict(False)
        witness = synthesize_sure_eventually_strategy(m, t, s0, k, cache=cache, limits=limits)
        return Verdict(True, witness=witness, certificate={"kind": "sure-eventually", "k": k})

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
        witness = _cycle_strategy(m, k, r, sl)
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
    layers = _cached(cache, ("reach-layers", safe.bits), lambda: reach_layers(m, safe))
    region = layers[-1]
    cert = {"kind": "sure-strongly", "safety_region": safe, "reach_region": region}
    if s0 <= region:
        return Verdict(True, certificate=cert,
                       witness=_reach_then_stay_strategy(m, safe, layers, "attract-then-stay"))
    return Verdict(False, certificate=cert)


def _limit_eventually(m, t, s0, cache, limits):
    """Memoized core of limit-sure eventually: "sure" when s0 lies inside some
    Pre^i(t), else the first counter phase whose lift of s0 lies in the
    product region, else None (not limit-sure winning)."""
    def make():
        lasso = _lasso(m, t, cache, limits)
        if any(s0 <= sup for sup in lasso.distinct()):
            return "sure"
        region = _product_region(m, lasso, cache).bits
        wide = lift_with_counter(s0, lasso.period, 0).bits   # phase tt: shifted down by tt
        return next((tt for tt in range(lasso.period) if wide >> tt & ~region == 0), None)

    return _cached(cache, ("limit-event", t.bits, s0.bits), make)


def _weakly_bound(m, t, cache, limits):
    """Z = gfp of X -> T & W(Pre(X)), iterated down from T: each round keeps the
    states q of X with {q} limit-sure eventually in Pre(X), so at most |T| rounds."""
    def make():
        pre_map, x = _pre_map(m, cache), t
        while True:
            y = SupportSet(t.width, pre_map[x.bits])
            nxt = SupportSet.of(t.width, [q for q in x if _limit_eventually(
                m, y, SupportSet(t.width, 1 << q), cache, limits) is not None])
            if nxt == x:
                return x
            x = nxt
    return _cached(cache, ("weakly-bound", t.bits), make)


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
    _check_question(sync_mode, t, s0)
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
    _check_question(sync_mode, t, s0)
    return _cached(cache, ("almost-sure", sync_mode, t.bits, s0.bits),
                   lambda: _decide_almost_sure(m, sync_mode, t, s0, cache, limits))


def _decide_almost_sure(m, sync_mode, t, s0, cache, limits):
    if sync_mode == "weakly":
        # Mass in T' is mass in any superset: skip subsets of sets s0 cannot limit-sure
        # reach, T among them. A T' passing condition (2) lies in the gfp Z of the module
        # docstring, and the subsets of Z keep their order among those of T.
        # T''s pre-lasso put Pre(T') in the Pre map, and Pre(T')'s lasso is T''s shifted by one.
        if _limit_eventually(m, t, s0, cache, limits) is None:
            return Verdict(False)
        pre_map = _pre_map(m, cache)
        z = _weakly_bound(m, t, cache, limits)
        failed = []
        for bits in _subsets_desc(z, t, limits):
            if any(bits & ~f == 0 for f in failed):
                continue
            t2 = SupportSet(t.width, bits)
            if _limit_eventually(m, t2, s0, cache, limits) is None:
                if t2 == z:
                    break
                failed.append(bits)
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
    region = _cached(cache, ("as-reach", safe.bits),
                     lambda: almost_sure_reach_region(m, safe))
    cert = {"kind": "almost-sure-strongly", "safety_region": safe,
            "as_reach_region": region}
    return Verdict(s0 <= region, certificate=cert)
