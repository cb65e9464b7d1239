"""Property-based invariants over randomly drawn models."""

import json
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

from hypothesis import event, given, settings, strategies as st

from syncmdp import (Dist, Lasso, Mdp, ModelFormatError, ParsedModel, PreMap, StrategySpec,
                     SupportSet, almost_sure_reach_region, analyze, decide_almost_sure,
                     decide_bounded, decide_limit_sure, decide_positive, decide_sure,
                     format_rational,
                     iterate_lasso, mec_decomposition,
                     model_to_obj, parse_model, pre, pre_lasso, serialize_model, simulate,
                     support_lasso, sure_safety_region, uniform_strategy)
from syncmdp.checks import CheckContext, _safe_reach, check_region_dp, rows_image
from syncmdp.classic import _countdown_strategy, _limit_eventually, _weakly_bound
from syncmdp.model import DEFAULT_LIMITS
from syncmdp.oracle import max_mass_at_step
from syncmdp.regions import _counter_apre

from conftest import (as_dists, as_fractions, exact_counter_product, matrix_power,
                      target_masses)


@st.composite
def dists(draw, n, max_size=None):
    size = draw(st.integers(1, min(n, max_size or n)))
    support = draw(st.permutations(range(n)))[:size]
    weights = [draw(st.integers(1, 4)) for _ in range(size)]
    total = sum(weights)
    return Dist(n, {q: Fraction(w, total) for q, w in zip(support, weights)})


@st.composite
def mdps(draw, max_states=4, max_actions=2, max_support=None):
    n = draw(st.integers(1, max_states))
    a = draw(st.integers(1, max_actions))
    rows = [[draw(dists(n, max_support)) for _ in range(a)] for _ in range(n)]
    return Mdp([f"s{i}" for i in range(n)], [f"a{j}" for j in range(a)], rows)


@st.composite
def supports(draw, n, nonempty=False):
    lo = 1 if nonempty else 0
    bits = draw(st.integers(lo, (1 << n) - 1)) if n else 0
    return SupportSet(n, bits)


@st.composite
def instances(draw, max_states=4, max_actions=2):
    m = draw(mdps(max_states, max_actions))
    d0 = draw(dists(m.n))
    t = draw(supports(m.n))
    return m, d0, t


@given(mdps(max_states=5, max_actions=3))
@settings(max_examples=60, deadline=None)
def test_successor_table_is_the_support_of_delta(m):
    for q in range(m.n):
        assert len(m.succ[q]) == m.action_count
        for a, d in enumerate(m.delta[q]):
            assert SupportSet(m.n, m.succ[q][a]) == d.support()
        union = SupportSet(m.n)
        for d in m.delta[q]:
            union = union | d.support()
        assert SupportSet(m.n, m.post[q]) == union


def _apre_mask(m, y, x):
    """APre(y, x) of M on masks, through the counter masks at r = 1 (one bit per state)."""
    def blocks(bits):
        return [bits >> q & 1 for q in range(m.n)]
    return sum(b << q for q, b in enumerate(_counter_apre(m, blocks(y), blocks(x), 1)))


@given(instances())
@settings(max_examples=60, deadline=None)
def test_apre_with_full_set_is_pre(inst):
    m, _, t = inst
    assert _apre_mask(m, t.bits, (1 << m.n) - 1) == pre(m, t).bits


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_pre_monotone(inst, data):
    m, _, y2 = inst
    y1 = SupportSet(m.n, y2.bits & data.draw(st.integers(0, (1 << m.n) - 1)))
    assert pre(m, y1) <= pre(m, y2)
    x = data.draw(supports(m.n)).bits
    assert _apre_mask(m, y1.bits, x) & ~_apre_mask(m, y2.bits, x) == 0
    assert _apre_mask(m, y2.bits, x & y1.bits) & ~_apre_mask(m, y2.bits, x | y1.bits) == 0


@given(instances())
@settings(max_examples=60, deadline=None)
def test_step_is_exact_and_stays_in_image(inst):
    m, d0, _ = inst
    d1 = as_dists(simulate(m, uniform_strategy(m), d0, 1), m.n)[1]
    assert sum(d1.mass.values()) == 1
    assert d1.support() <= rows_image(m.post, d0.support())


@given(instances(), st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_product_projection_commutes_with_step(inst, r, t_raw):
    m, d0, _ = inst
    t = t_raw % r
    prod = exact_counter_product(m, r)
    lifted = Dist(m.n * r, {q * r + (r - 1 - t): p for q, p in d0.mass.items()})
    stepped_prod = as_dists(simulate(prod, uniform_strategy(prod), lifted, 1), prod.n)[1]
    stepped_base = as_dists(simulate(m, uniform_strategy(m), d0, 1), m.n)[1]
    assert SupportSet.of(m.n, {idx // r for idx in stepped_prod.mass}) \
        == stepped_base.support()
    projected = {}
    for idx, p in stepped_prod.mass.items():
        projected[idx // r] = projected.get(idx // r, Fraction(0)) + p
    assert projected == stepped_base.mass


def _lift(s, r, i):
    """s x {i} in M x [r], whose state <q, i> has index q r + (r-1-i)."""
    return SupportSet.of(s.width * r, (q * r + r - 1 - i for q in s))


@given(st.integers(1, 3).flatmap(lambda k: mdps(max_states=5, max_actions=3, max_support=k)),
       st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_counter_masks_agree_with_the_exact_counter_product(m, r, data):
    # the region and the battery's safe reach on counter masks are the exact
    # product's, state for state, and the limit-sure phase is the first counter
    # whose lift of s0 lies in the exact product's region; narrow supports make
    # the cycles on which counters run out of phase
    prod = exact_counter_product(m, r)
    big_r = data.draw(supports(m.n))
    ref = almost_sure_reach_region(prod, _lift(big_r, r, 0))
    assert almost_sure_reach_region(m, big_r, r) == ref
    t = data.draw(st.integers(0, (1 << prod.n) - 1))
    y = data.draw(st.integers(0, (1 << prod.n) - 1))
    assert _safe_reach(m, t, y, r) == _safe_reach(prod, t, y)
    # the phase scan reads R and r off the target's memoized pre-lasso; a stand-in
    # lasso on which R recurs with period r puts the drawn pair there
    target, s0 = data.draw(supports(m.n)), data.draw(supports(m.n, nonempty=True))
    cache = {("pre-lasso", target.bits): Lasso((big_r,) * (r + 1), 0, r)}
    phase = _limit_eventually(m, target, s0, cache, DEFAULT_LIMITS)
    event("sure" if phase == "sure" else "product" if phase is not None else "none")
    assert phase == ("sure" if s0 <= big_r else
                     next((i for i in range(r) if _lift(s0, r, i) <= ref), None))


@given(mdps(max_states=6, max_actions=3), st.data())
@settings(max_examples=60, deadline=None)
def test_pre_lassos_through_one_shared_pre_map_match_fresh_ones(m, data):
    shared = PreMap(m)
    for _ in range(data.draw(st.integers(1, 8))):
        t = data.draw(supports(m.n))
        fresh = iterate_lasso(lambda y: pre(m, SupportSet(m.n, y)).bits, t,
                              DEFAULT_LIMITS.max_lasso, "pre-lasso")
        assert pre_lasso(m, t, pre_map=shared) == fresh
    for bits, nxt in shared.items():
        assert SupportSet(m.n, nxt) == pre(m, SupportSet(m.n, bits))


@given(instances())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_identity(inst):
    m, d0, t = inst
    pm = ParsedModel(m, d0, {"t": t})
    again = parse_model(serialize_model(pm))
    assert model_to_obj(again) == model_to_obj(pm)
    assert again.initial == d0 and again.targets == {"t": t}


@given(instances())
@settings(max_examples=40, deadline=None)
def test_pre_lasso_periodic_beyond_closure(inst):
    m, _, t = inst
    lasso = pre_lasso(m, t)
    k, r = lasso.start, lasso.period
    assert k + r <= 2 ** m.n
    cur = t
    for _ in range(k):
        cur = pre(m, cur)
    for i in range(k, k + 3 * r):
        assert cur == lasso.at(i)
        assert lasso.at(i) == lasso.at(i + r)
        cur = pre(m, cur)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_support_lasso_matches_matrix_powers(inst):
    m, d0, _ = inst
    s0 = d0.support()
    lasso = support_lasso(m, s0)
    assert lasso.start + lasso.period <= 2 ** m.n
    for i in range(lasso.start + lasso.period + 1):
        assert rows_image(matrix_power(m, i), s0) == lasso.at(i)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_safety_region_is_greatest_closed_subset(inst):
    m, _, t = inst
    s = sure_safety_region(m, t)
    assert s <= t and s <= pre(m, s)
    for q in t - s:
        bigger = s | SupportSet.of(m.n, [q])
        assert not bigger <= pre(m, bigger)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_mec_components_verbatim(inst):
    m, _, _ = inst
    dec = mec_decomposition(m)
    seen = SupportSet(m.n)
    for comp in dec.components:
        assert not comp & seen
        seen = seen | comp
        for q in comp:
            acts = dec.internal_actions[q]
            assert acts, "closedness requires an internal action"
            for a in acts:
                assert SupportSet(m.n, m.succ[q][a]) <= comp
        members = list(comp)
        for u in members:
            reached = {u}
            frontier = [u]
            while frontier:
                v = frontier.pop()
                for a in dec.internal_actions[v]:
                    for w in SupportSet(m.n, m.succ[v][a]):
                        if w not in reached:
                            reached.add(w)
                            frontier.append(w)
            assert set(members) <= reached, "component must be strongly connected"
    assert seen == dec.union


@given(instances())
@settings(max_examples=30, deadline=None)
def test_region_order_independence_under_permutation(inst):
    m, _, t = inst
    perm = list(reversed(range(m.n)))
    rows = []
    for q in perm:
        row = []
        for a in range(m.action_count):
            row.append(Dist(m.n, {perm.index(q2): p
                                  for q2, p in m.delta[q][a].mass.items()}))
        rows.append(row)
    m2 = Mdp([m.states[q] for q in perm], m.actions, rows)

    def relabel(s):
        return SupportSet.of(m.n, [perm.index(q) for q in s])

    assert relabel(pre(m, t)) == pre(m2, relabel(t))
    assert relabel(sure_safety_region(m, t)) == sure_safety_region(m2, relabel(t))
    assert relabel(almost_sure_reach_region(m, t)) \
        == almost_sure_reach_region(m2, relabel(t))
    assert relabel(mec_decomposition(m).union) == mec_decomposition(m2).union


@given(instances(), st.data())
@settings(max_examples=30, deadline=None)
def test_support_only_dependence(inst, data):
    m, d0, t = inst
    s0 = d0.support()
    weights = [data.draw(st.integers(1, 5)) for _ in s0]
    total = sum(weights)
    d1 = Dist(m.n, {q: Fraction(w, total) for q, w in zip(s0, weights)})
    assert d1.support() == s0
    for mode in ("eventually", "weakly"):
        assert decide_sure(m, mode, t, d0.support()).answer \
            == decide_sure(m, mode, t, d1.support()).answer
        assert decide_limit_sure(m, mode, t, d0.support()).answer \
            == decide_limit_sure(m, mode, t, d1.support()).answer


def ref_sure_weakly(m, t, s0):
    """Reference: search the nonempty subsets of t by decreasing size, then index
    order, for the first recurring one (s <= Pre^r(s), r >= 1) whose predecessor
    lasso reaches s0; (set, k, r, lasso), or None when no subset qualifies."""
    members = list(t)
    for size in range(len(members), 0, -1):
        for combo in combinations(members, size):
            s = SupportSet.of(t.width, combo)
            sl = pre_lasso(m, s)
            r = next((i for i in range(1, len(sl.supports)) if s <= sl.supports[i]), None)
            if r is None:
                continue
            k = next((i for i, sup in enumerate(sl.distinct()) if s0 <= sup), None)
            if k is None:
                continue
            return s, k, r, sl
    return None


# successor supports of at most two states keep Pre selective, so the largest
# recurring subset is often a proper subset of the target with a period > 1
@given(mdps(max_states=6, max_actions=3, max_support=2), st.data())
@settings(max_examples=150, deadline=None)
def test_sure_weakly_fixpoint_matches_subset_search(m, data):
    t = data.draw(supports(m.n))
    d0 = data.draw(dists(m.n))
    cache = {}
    for s0 in [d0.support(), *(SupportSet.of(m.n, [q]) for q in range(m.n))]:
        v = decide_sure(m, "weakly", t, s0, cache=cache)
        ref = ref_sure_weakly(m, t, s0)
        assert v.answer == (ref is not None)
        if ref is None:
            assert v.certificate is None and v.witness is None
            continue
        s, k, r, sl = ref
        assert v.certificate == {"kind": "sure-weakly", "set": s, "k": k, "r": r}
        assert v.witness == _countdown_strategy(m, sl, k, r)


# every T' passing condition (2) of the almost-sure weakly search lies in the
# fixpoint bound Z of each target T above it, so walking only Z's subsets finds the
# same first hit (the verdicts and t_prime against the unrestricted search:
# test_almost_sure_weakly_pruned_search_matches_full_search)
@given(mdps(max_states=5, max_actions=3, max_support=2))
@settings(max_examples=150, deadline=None)
def test_almost_sure_weakly_search_stays_inside_the_fixpoint_bound(m):
    cache = {}
    passing = [t2 for t2 in (SupportSet(m.n, bits) for bits in range(1, 1 << m.n))
               if _limit_eventually(m, pre(m, t2), t2, cache, DEFAULT_LIMITS) is not None]
    for bits in range(1 << m.n):
        t = SupportSet(m.n, bits)
        z = _weakly_bound(m, t, cache, DEFAULT_LIMITS)
        assert z <= t
        assert all(t2 <= z for t2 in passing if t2 <= t)


def ref_almost_sure_weakly(m, t, s0):
    """Reference: the first nonempty subset T' of t, by decreasing size, then index
    order, with s0 limit-sure eventually in T' and T' limit-sure eventually in
    Pre(T'), trying every subset; None when none qualifies."""
    cache = {}
    members = list(t)
    for size in range(len(members), 0, -1):
        for combo in combinations(members, size):
            t2 = SupportSet.of(t.width, combo)
            if (_limit_eventually(m, t2, s0, cache, DEFAULT_LIMITS) is not None
                    and _limit_eventually(m, pre(m, t2), t2, cache, DEFAULT_LIMITS) is not None):
                return t2
    return None


@given(mdps(max_states=6, max_actions=3, max_support=2), st.data())
@settings(max_examples=250, deadline=None)
def test_almost_sure_weakly_pruned_search_matches_full_search(m, data):
    t = data.draw(supports(m.n))
    d0 = data.draw(dists(m.n))
    cache = {}
    for s0 in [d0.support(), *(SupportSet.of(m.n, [q]) for q in range(m.n))]:
        v = decide_almost_sure(m, "weakly", t, s0, cache=cache)
        ref = ref_almost_sure_weakly(m, t, s0)
        assert v.answer == (ref is not None)
        if ref is None:
            assert v.certificate is None
        else:
            assert v.certificate == {"kind": "almost-sure-weakly", "t_prime": ref}


# the almost-sure weakly search skips every subset of a target that s0 cannot
# limit-sure reach: sound only if reaching a target implies reaching its supersets
@given(mdps(max_states=6, max_actions=3), st.data())
@settings(max_examples=150, deadline=None)
def test_limit_sure_eventually_is_monotone_in_the_target(m, data):
    a = data.draw(supports(m.n))
    bigger = a | data.draw(supports(m.n))
    s0 = data.draw(supports(m.n, nonempty=True))
    if _limit_eventually(m, a, s0, {}, DEFAULT_LIMITS) is not None:
        assert _limit_eventually(m, bigger, s0, {}, DEFAULT_LIMITS) is not None


@given(instances())
@settings(max_examples=25, deadline=None)
def test_full_matrix_is_consistent(inst):
    m, d0, t = inst
    analyze(m, d0, t)  # raises ConsistencyError on any identity violation


@given(instances(max_states=5, max_actions=3))
@settings(max_examples=60, deadline=None)
def test_a_decider_without_a_memo_gives_the_memoized_verdict(inst):
    # a call without `cache` answers through a fresh memo of its own: the same
    # answer, certificate and witness as its cell of the engine's one-memo matrix
    m, d0, t = inst
    s0 = d0.support()
    deciders = {"sure": decide_sure, "almost-sure": decide_almost_sure,
                "limit-sure": decide_limit_sure, "positive": decide_positive,
                "bounded": decide_bounded}
    for (mode, win), v in analyze(m, d0, t).verdicts.items():
        fresh = deciders[win](m, mode, t, s0)
        assert (fresh.answer, fresh.certificate, fresh.witness and fresh.witness.label) \
            == (v.answer, v.certificate, v.witness and v.witness.label), (mode, win)


@given(instances(), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_simulation_below_dp_optimum(inst, h):
    m, d0, t = inst
    profile = as_fractions(max_mass_at_step(m, t, d0, h))
    trace = simulate(m, uniform_strategy(m), d0, h)
    for v, best in zip(target_masses(trace, t), profile, strict=True):
        assert v <= best


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1", "1/2", "0", "1/0", "s0", "a0", "1" * 5001]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def parses_or_rejects(doc):
    try:
        assert isinstance(parse_model(doc), ParsedModel)
    except ModelFormatError:
        pass


def field_paths(doc, prefix=()):
    """Key/index paths to every value nested in a decoded document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_value_parses_or_is_rejected(value):
    parses_or_rejects(value)
    parses_or_rejects(json.dumps(value))


@given(instances(max_states=3), st.data())
@settings(max_examples=200, deadline=None)
def test_single_field_mutation_parses_or_is_rejected(inst, data):
    m, d0, t = inst
    doc = model_to_obj(ParsedModel(m, d0, {"t": t}))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(json_values)
    else:
        del parent[path[-1]]
    parses_or_rejects(doc)
    parses_or_rejects(json.dumps(doc))


@given(instances(max_states=6, max_actions=3))
@settings(max_examples=100, deadline=None)
def test_region_certificate_holds_exactly_on_the_almost_sure_reach_region(inst):
    # both certificates are exact: region-dp-agreement passes on the engine's
    # region, and fails once a region state outside t is dropped or an
    # outside state is added
    m, _, t = inst
    ctx = CheckContext(SimpleNamespace(mdp=m, target=t), horizon=0)
    region = ctx.reach_region
    assert check_region_dp(ctx)[0] == "pass"
    for q in range(m.n):
        if q not in t:
            ctx.reach_region = SupportSet(m.n, region.bits ^ 1 << q)
            assert check_region_dp(ctx)[0] == "fail", q


@st.composite
def mass_values(draw):
    """Values for a distribution or an action row: ints, zeros, negatives, small
    fractions and fractions over two coprime denominators above 10^30; the last
    value completes the sum to exactly 1 half of the time."""
    big = draw(st.integers(10 ** 30, 10 ** 31))
    value = st.one_of(
        st.integers(-2, 2),
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
        st.builds(Fraction, st.integers(-big, 2 * big), st.sampled_from((big, big + 1))))
    values = draw(st.lists(value, max_size=5))
    if values and draw(st.booleans()):
        values[-1] = 1 - sum(values[:-1], Fraction(0))
    return values


def reference_dist_mass(width, mass):
    """Dist's checks by `Fraction` comparisons and a `Fraction` sum: the stored
    positive masses, or the ValueError's message."""
    clean, total = {}, Fraction(0)
    for q in sorted(mass):
        p = Fraction(mass[q])
        if not 0 <= q < width:
            return f"state index {q} out of range for width {width}"
        if p < 0:
            return f"negative mass {p} at state {q}"
        if p > 0:
            clean[q] = p
            total += p
    return clean if total == 1 else f"distribution sums to {format_rational(total)}"


def reference_row_error(row):
    """StrategySpec's row check by a `Fraction` sum: the message, or None."""
    total = sum(row.values(), Fraction(0))
    if total != 1 or any(p < 0 for p in row.values()):
        return f"action row {row} is not a distribution (sums to {format_rational(total)})"
    return None


def outcome(make):
    """What make() returns, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_dist_checks_agree_with_a_fraction_sum(data):
    # states in range in any order, one in four times one out of range
    width = data.draw(st.integers(1, 5))
    states = data.draw(st.permutations(range(width)))
    if data.draw(st.integers(0, 3)) == 0:
        states.insert(data.draw(st.integers(0, width)), data.draw(st.sampled_from((-1, width))))
    mass = dict(zip(states, data.draw(mass_values())))
    expected = reference_dist_mass(width, mass)
    event("accepted" if isinstance(expected, dict) else "rejected")
    got = outcome(lambda: Dist(width, mass).mass)
    assert got == expected
    if isinstance(got, dict):
        assert list(got) == list(expected)


@given(mass_values(), mass_values())
@settings(max_examples=300, deadline=None)
def test_strategy_rows_agree_with_a_fraction_sum(default_values, forced_values):
    default = dict(enumerate(default_values))
    forced = dict(enumerate(forced_values))
    expected = reference_row_error(default) or reference_row_error(forced) or "accepted"
    event("accepted" if expected == "accepted" else "rejected")
    got = outcome(lambda: StrategySpec("accepted", (0,), 0, ({0: forced},), default).label)
    assert got == expected
