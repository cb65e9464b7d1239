"""Oracle cross-checks: every inequality and structural invariant the
verdicts imply, verified against exact simulation, backward induction,
brute-force strategy enumeration and support-mask certificates. The simulated
strategies are the analysis's own witnesses (from its memo). `lasso-integrity`
steps the support lasso by Post and checks it against boolean matrix powers at
O(log(l + p)) points, and `reach-value-cap` and `region-dp-agreement` reuse the
almost-sure reach region. The mask certificates (`_safe_reach`, `_certified`)
read only `succ`, and take from the deciders only `decide_limit_sure`'s
certificates of the two conditions of an almost-sure weakly verdict.

The checks read trace and profile steps as target numerators over totals and
supports as bit masks; a `Fraction` is built only for a value a check reports.
Each artifact is computed once per analysis in its `CheckContext`: the traces,
the enumeration (at a depth read off the history tree's node counts), the step
profile and the Pre^i chains the certificates read.

A check returns `(status, info)`; `run_checks` names its `CheckResult` by the
check's `ALL_CHECKS` key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import or_

from .adversarial import _freezing, _uniform, matrix_squares, post_image, rows_image
from .bounds import compute_bound
from .classic import decide_limit_sure
from .model import BudgetExceeded, ONE, SupportSet, _iter_bits, counter_product, lift_with_counter
from .oracle import (_clears, _numerator_in, enumerate_pure_strategies, enumeration_depth,
                     max_mass_at_step, simulate)
from .regions import almost_sure_reach_region


@dataclass
class CheckResult:
    name: str
    status: str            # "pass", "fail" or "skip"
    info: dict


def _bound(analysis, cell, kind):
    """The `kind` certificate a verdict cell carries, or None."""
    return next((b for b in analysis.bounds[cell] if b.kind == kind), None)


DEFAULT_CHECK_BUDGET = 5000
DEFAULT_ENUM_DEPTH = 6
MAX_HORIZON = 10_000   # the traces and the step profile take memory quadratic in the horizon


class CheckContext:
    """Shared simulation artifacts for one analyzed instance, each built on first use.
    The default horizon is max(50, 4 * switch), clamped to MAX_HORIZON."""

    def __init__(self, analysis, horizon=None, budget=DEFAULT_CHECK_BUDGET,
                 enum_depth=DEFAULT_ENUM_DEPTH):
        self.analysis = analysis
        self.budget = budget
        self.enum_depth = enum_depth
        self.horizon = (horizon if horizon is not None
                        else min(max(50, 4 * analysis.switch), MAX_HORIZON))
        self.pre_chains = {}   # the mask chains Pre^i(y) certificate-recheck reads, by y

    @cached_property
    def traces(self):
        """One trace per strategy the checks read (uniform and freezing play, the
        witnesses), each simulated once to the longest window a check reads."""
        a = self.analysis
        m = a.mdp
        strategies = {
            "uniform": _uniform(m, a.cache),
            "freezing": _freezing(m, a.s0, a.lasso, a.mec, a.cache),
        }
        for verdict in a.verdicts.values():
            w = verdict.witness
            if w is not None and w.label not in strategies:
                strategies[w.label] = w
        # positive-definition-sim, freezing-lower-bound and witness-soundness
        # read past the horizon: the sure witnesses to the last step they claim
        windows = {"uniform": a.switch + a.lasso.period}
        nsteps = _bound(a, ("strongly", "bounded"), "N_adversarial")
        if nsteps is not None:
            windows["freezing"] = a.switch + 3 * nsteps.value
        for _, label, steps in self.claims:
            windows[label] = max(windows.get(label, 0), steps[-1])
        return {label: simulate(m, s, a.initial, max(self.horizon, windows.get(label, 0)))
                for label, s in strategies.items()}

    @cached_property
    def claims(self):
        """(mode, witness label, steps) of each sure yes-verdict with a witness: the steps
        its claim puts all mass in the target at (k; to the horizon; from n; k, k + r, ...)."""
        a, h, n = self.analysis, self.horizon, self.analysis.mdp.n
        spans = {"eventually": lambda cert: range(cert["k"], cert["k"] + 1),
                 "always": lambda cert: range(h + 1),
                 "strongly": lambda cert: range(n, max(h, n) + 1),
                 "weakly": lambda cert: range(cert["k"], max(h, cert["k"] + cert["r"]) + 1,
                                              cert["r"])}
        verdicts = {mode: a.verdicts[(mode, "sure")] for mode in spans}
        return [(mode, v.witness.label, spans[mode](v.certificate))
                for mode, v in verdicts.items() if v.answer and v.witness is not None]

    @cached_property
    def profile(self):
        """The optimal target mass at each step to the horizon, as (numerator, total)."""
        a = self.analysis
        return max_mass_at_step(a.mdp, a.target, a.initial, self.horizon)

    @cached_property
    def count_traces(self):
        """(traces, masses) for the prefix dips and sync-count caps: the simulated
        traces cut to the horizon, then the enumerated ones; masses[id(step)] is
        (target numerator, total) of each distinct step dict (a prefix the
        enumerated strategies share is one), summed once."""
        traces = [t.cut(self.horizon) for t in self.traces.values()] + self.enumerated[1]
        steps = {id(nums): (nums, total)
                 for trace in traces for nums, total in zip(trace.nums, trace.totals)}
        return traces, {key: (_numerator_in(self.analysis.target, nums), total)
                        for key, (nums, total) in steps.items()}

    @cached_property
    def reach_region(self):
        """The almost-sure reach region of the target."""
        return almost_sure_reach_region(self.analysis.mdp, self.analysis.target)

    @cached_property
    def enumerated(self):
        """Pure-strategy traces at the deepest horizon the budget admits (n <= 4)."""
        a = self.analysis
        depth = (enumeration_depth(a.mdp, a.initial, self.enum_depth, self.budget)
                 if a.mdp.n <= 4 else None)
        if depth is None:
            return None, []
        return depth, list(enumerate_pure_strategies(a.mdp, a.initial, depth,
                                                     budget=self.budget))


def check_lasso_integrity(ctx):
    """Lasso closure bounds and closure, Post and Pre steps, and matrix-power agreement.

    The support lasso starts at s0, steps by Post and closes on its loop, so
    every later step repeats the loop. Boolean matrix powers, by repeated
    squaring, confirm its supports at l, at l + p and at the powers of two up
    to l + p: O(log(l + p)) matrix products in all."""
    a = ctx.analysis
    m, lasso = a.mdp, a.lasso
    l, p = lasso.start, lasso.period
    if l + p > 2 ** m.n:
        return "fail", {"reason": f"closure {l}+{p} exceeds 2^n"}
    supports = lasso.supports
    if supports[0] != a.s0 or supports[l + p:] != (supports[l],):
        return "fail", {"reason": "support lasso does not run from s0 to its loop"}
    for i in range(l + p):
        if post_image(m, supports[i]) != supports[i + 1]:
            return "fail", {"reason": f"support step broken at {i}"}
    squares = matrix_squares(m, l + p)
    for i in sorted({l, l + p, *(1 << j for j in range(len(squares)))}):
        # s0 M^i, through the square M^(2^j) of each bit j of i
        image = reduce(lambda s, j: rows_image(squares[j], s),
                       (j for j in range(len(squares)) if i >> j & 1), a.s0)
        if image != supports[i]:
            return "fail", {"reason": f"matrix power disagrees at step {i}"}
    tl = a.target_lasso
    k, r = tl.start, tl.period
    if k + r > 2 ** a.mdp.n:
        return "fail", {"reason": "predecessor lasso exceeds 2^n"}
    if tl.supports[0] != a.target or tl.supports[k + r:] != (tl.supports[k],):
        return "fail", {"reason": "predecessor lasso does not run from the target to its loop"}
    for i in range(k + r):
        if _pre(a.mdp, tl.supports[i].bits) != tl.supports[i + 1].bits:
            return "fail", {"reason": f"predecessor step broken at {i}"}
    return "pass", {"loop_start": l, "period": p, "pre_k": k, "pre_r": r}


def _under_cap(profile, cap, ratio=ONE):
    """(i, mass) of the first profile step i whose mass exceeds 1 - cap * ratio^i, else
    (None, the least slack (1 - cap * ratio^i) - mass), by integer cross-multiplication."""
    num, den = cap.numerator, cap.denominator
    least = None   # (numerator, denominator) of the least slack so far
    for i, (v, total) in enumerate(profile):
        slack, scale = (den - num) * total - v * den, den * total
        if slack < 0:
            return i, Fraction(v, total)
        if least is None or slack * least[1] < least[0] * scale:
            least = slack, scale
        num, den = num * ratio.numerator, den * ratio.denominator
    return None, Fraction(*least)


def check_step_decay_cap(ctx):
    """Not sure-eventually: optimal mass at step i stays below 1 - alpha0*alpha^i."""
    a = ctx.analysis
    if a.answer("eventually", "sure"):
        return "skip", {"reason": "sure eventually holds"}
    step, value = _under_cap(ctx.profile, a.alpha0, a.alpha)
    if step is not None:
        return "fail", {"step": step, "value": str(value)}
    return "pass", {"horizon": ctx.horizon, "min_slack": str(value)}


def check_eventually_isolation(ctx):
    """Not limit-sure eventually: the eps_eventually of its cell isolates the value."""
    a = ctx.analysis
    if a.answer("eventually", "limit-sure"):
        return "skip", {"reason": "limit-sure holds"}
    cert = _bound(a, ("eventually", "limit-sure"), "eps_eventually")
    if cert is None or cert.value is None:
        return "skip", {"reason": "no exact bound"}
    eps = cert.value
    step, value = _under_cap(ctx.profile, eps)
    if step is not None:
        return "fail", {"eps": str(eps)}
    return "pass", {"eps_log10": cert.log10, "observed_gap": str(value + eps)}


def check_reach_value_cap(ctx):
    """Outside the almost-sure reach region the reach value is capped for good."""
    a = ctx.analysis
    if a.s0 <= ctx.reach_region:
        return "skip", {"reason": "initial support is almost-sure for reach"}
    cap = compute_bound("lemma1_reach", a.mdp.n, a.mdp.action_count,
                        a.alpha, a.alpha0).value
    step, value = _under_cap(ctx.profile, cap)
    if step is not None:
        return "fail", {"step": step, "value": str(value)}
    return "pass", {"cap": str(cap), "observed_gap": str(value + cap)}


def _prefix_dip(mode, win, kind, ctx):
    """Not `win` `mode`: every strategy has a step i <= n with target mass at
    most 1 - eps, tested on each trace of `count_traces` that has n + 1 steps
    (the per-step optimum need not dip: strategies may dip at different steps)."""
    a = ctx.analysis
    if a.answer(mode, win):
        return "skip", {"reason": f"{win} {mode} holds"}
    cert = _bound(a, (mode, win), kind)
    if cert is None or cert.value is None:
        return "skip", {"reason": "no exact bound"}
    n = a.mdp.n
    threshold = 1 - cert.value
    traces, masses = ctx.count_traces
    for trace in traces:
        prefix = [masses[id(nums)] for nums in trace.nums[:n + 1]]
        if len(prefix) > n and all(_clears(v, total, threshold) for v, total in prefix):
            return "fail", {"eps": str(cert.value), "strategy": trace.strategy_label,
                            "prefix": [str(Fraction(v, total)) for v, total in prefix]}
    return "pass", {"eps": str(cert.value)}


def _synced(masses, eps=None):
    """The keys of the synchronized steps among `masses`: all mass in the target
    (eps None), or mass strictly above 1 - eps. A step short of full mass is at
    least 1/total short of 1, so for a total with 0 < eps * total <= 1 (one
    test per distinct total) a step is synchronized iff v == total; only the
    steps over the other totals are cross-multiplied."""
    threshold = None if eps is None else 1 - eps
    exact = {}   # per distinct total: whether v == total decides
    synced = set()
    for key, (v, total) in masses.items():
        full = exact.get(total)
        if full is None:
            full = exact[total] = eps is None or 0 < eps.numerator * total <= eps.denominator
        if v == total if full else _clears(v, total, threshold):
            synced.add(key)
    return synced


def _sync_count_cap(win, ctx):
    """Not `win` weakly: at most 2^n synchronized positions along any strategy.

    Sure: positions with all mass in the target. Almost-sure: positions with
    mass strictly above 1 - eps_weakly.
    """
    a = ctx.analysis
    if a.answer("weakly", win):
        return "skip", {"reason": f"{win} weakly holds"}
    eps = None
    if win == "almost-sure":
        if a.mdp.n < 2:
            return "skip", {"reason": "eps_weakly undefined for n=1"}
        cert = _bound(a, ("weakly", win), "eps_weakly")
        if cert is None or cert.value is None:
            return "skip", {"reason": "no exact bound"}
        eps = cert.value
    cap = 2 ** a.mdp.n
    depth, enumerated = ctx.enumerated
    traces, masses = ctx.count_traces
    synced = _synced(masses, eps)
    for trace in traces:
        count = sum(id(nums) in synced for nums in trace.nums)
        if count > cap:
            return "fail", {"strategy": trace.strategy_label, "count": count}
    info = {"cap": cap, "enumeration_depth": depth}
    if eps is not None:
        info["enumerated"] = len(enumerated)
    return "pass", info


def check_freezing_bound(ctx):
    """Bounded strongly: the freezing witness keeps the certified floor forever."""
    a = ctx.analysis
    if not a.answer("strongly", "bounded"):
        return "skip", {"reason": "not bounded strongly"}
    cert = _bound(a, ("strongly", "bounded"), "eps_adversarial")
    nsteps = _bound(a, ("strongly", "bounded"), "N_adversarial")
    if cert is None or cert.value is None or nsteps is None:
        return "skip", {"reason": "no exact bound"}
    n_adv = nsteps.value
    h = a.switch + 3 * n_adv
    trace = ctx.traces["freezing"]
    start = a.switch + n_adv
    for i in range(start, h + 1):
        v, total = _numerator_in(a.target, trace.nums[i]), trace.totals[i]
        if not _clears(v, total, cert.value, strict=False):
            return "fail", {"step": i, "mass": str(Fraction(v, total)), "eps": str(cert.value)}
    return "pass", {"from_step": start, "to_step": h, "eps_log10": cert.log10}


def check_positive_definition(ctx):
    """Positive verdicts match the definition on one extra lasso period of play."""
    a = ctx.analysis
    window = a.switch + a.lasso.period
    masses = [_numerator_in(a.target, nums)
              for nums in ctx.traces["uniform"].nums[:window + 1]]
    l = a.lasso.start
    facts = {
        "eventually": any(v > 0 for v in masses),
        "always": all(v > 0 for v in masses),
        "weakly": any(v > 0 for v in masses[l:]),
        "strongly": all(v > 0 for v in masses[l:]),
    }
    for mode, expected in facts.items():
        if a.answer(mode, "positive") != expected:
            return "fail", {"mode": mode, "expected": expected}
    return "pass", {"window": window}


def check_support_monotonicity(ctx):
    """Freezing refines uniform: supports shrink, and agree on the EC union late."""
    a = ctx.analysis
    uni = ctx.traces["uniform"].nums
    frz = ctx.traces["freezing"].nums
    union = a.mec.union.bits
    for i in range(ctx.horizon + 1):
        su = _mask(uni[i])
        sf = _mask(frz[i])
        if sf & ~su:
            return "fail", {"step": i, "reason": "freezing support escapes uniform"}
        if i >= a.switch and (sf ^ su) & union:
            return "fail", {"step": i, "reason": "EC-intersection mismatch"}
    return "pass", {"switch": a.switch}


def _mask(nums):
    """The support of a trace step as a bit mask."""
    return sum(1 << q for q in nums)


def _safe_reach(m, t, y):
    """The states (masks throughout) that reach t through actions keeping all
    their successors in y: from those of y, uniform play over such actions
    stays in y and reaches t from all of it, so it reaches t almost surely."""
    keep = {q: reduce(or_, (s for s in m.succ[q] if s & ~y == 0), 0)
            for q in _iter_bits(y & ~t)}
    reached, grown = 0, t
    while grown != reached:
        reached = grown
        grown = reduce(or_, (1 << q for q, s in keep.items() if s & reached), reached)
    return reached


def _region_failure(m, states, reason):
    """A failure at the lowest state of the mask `states`."""
    return "fail", {"state": m.states[next(_iter_bits(states))], "reason": reason}


def check_region_dp(ctx):
    """The region is exactly the almost-sure reach region, and no state outside
    it reaches t with probability above 1 - alpha^n.

    Winning side: every region state reaches t within the region. Losing side:
    peel layers off y = all states, a layer being the states of y that do not
    reach t within y. In layer j an action keeping its successors in y stays in
    the layer, outside t; any other action leaves for an earlier layer with
    probability >= alpha. So by induction layer j reaches t with probability
    at most 1 - alpha^j, j <= n. A state outside the region that is never
    peeled off reaches t almost surely."""
    a = ctx.analysis
    m, t, region = a.mdp, a.target.bits, ctx.reach_region.bits
    uncertified = region & ~_safe_reach(m, t, region)
    if uncertified:
        return _region_failure(m, uncertified, "winning state not certified")
    y, layers = (1 << m.n) - 1, 0
    while y & ~region:
        layer = y & ~_safe_reach(m, t, y)
        if not layer:
            return _region_failure(m, y & ~region, "losing state not certified")
        y &= ~layer
        layers += 1
    return "pass", {"layers": layers, "region": list(ctx.reach_region.names(m.states))}


def check_witness_soundness(ctx):
    """Each synthesized classic witness achieves exactly what its verdict claims."""
    for mode, label, steps in ctx.claims:
        trace = ctx.traces[label]
        for i in steps:
            if _numerator_in(ctx.analysis.target, trace.nums[i]) != trace.totals[i]:
                return "fail", {"mode": f"sure {mode}", "step": i}
    return "pass", {}


def _pre(m, y):
    """Mask Pre: the states with an action keeping all its successors in the mask y."""
    return sum(1 << q for q, row in enumerate(m.succ) if any(s & ~y == 0 for s in row))


def _pre_power(m, y, k, chains):
    """Pre^k of the mask y, read off the chain y, Pre(y), Pre^2(y), ... that
    `chains` keeps per start mask, extended as far as a read needs."""
    chain = chains.setdefault(y, [y])
    while len(chain) <= k:
        chain.append(_pre(m, chain[-1]))
    return chain[k]


def _trap(m, t, y):
    """The mask y lies inside t, and each member has an action keeping its successors in y."""
    return y & ~t == 0 and y & ~_pre(m, y) == 0


def _certified(m, t, s0, cert, cache=None, chains=None):
    """Whether the yes-certificate `cert` proves its cell for target t from s0 on masks
    of `succ`, and for almost-sure weakly the limit-sure ones of its two conditions.
    `chains` keeps the Pre^i chains it reads (a fresh one when None)."""
    chains = {} if chains is None else chains
    kind, tb, s0b = cert["kind"], t.bits, s0.bits
    if kind == "limit-sure-eventually":
        k, r, big_r = cert["k"], cert["r"], cert["R"].bits
        if (r < 1 or big_r != _pre_power(m, tb, k, chains)
                or big_r != _pre_power(m, big_r, r, chains)):
            return False
    if kind == "sure-eventually" or cert.get("via") == "sure":
        k = cert["k"] if kind == "sure-eventually" else cert["sure_k"]
        return s0b & ~_pre_power(m, tb, k, chains) == 0
    if kind == "sure-weakly":
        s, k, r = cert["set"].bits, cert["k"], cert["r"]
        return (r >= 1 and s & ~tb == 0 and s & ~_pre_power(m, s, r, chains) == 0
                and s0b & ~_pre_power(m, s, k, chains) == 0)
    if kind == "sure-always":
        return _trap(m, tb, cert["region"].bits) and s0b & ~cert["region"].bits == 0
    if kind == "sure-strongly":
        safe, region = cert["safety_region"].bits, cert["reach_region"].bits
        # Pre^i of a trap grows with i, so Pre^n of it is its attractor
        return (_trap(m, tb, safe) and region & ~_pre_power(m, safe, m.n, chains) == 0
                and s0b & ~region == 0)
    if kind == "almost-sure-strongly":
        safe, region = cert["safety_region"].bits, cert["as_reach_region"].bits
        return (_trap(m, tb, safe) and region & ~_safe_reach(m, safe, region) == 0
                and s0b & ~region == 0)
    if kind == "limit-sure-eventually":   # via the counter product
        region, goal = cert["product_region"].bits, lift_with_counter(cert["R"], r, 0).bits
        return (region & ~_safe_reach(counter_product(m, r), goal, region) == 0
                and lift_with_counter(s0, r, cert["phase"]).bits & ~region == 0)
    t2 = cert["t_prime"]   # almost-sure weakly, or eventually via weakly
    if t2.bits & ~tb:
        return False
    for goal, start in ((t2, s0), (SupportSet(m.n, _pre(m, t2.bits)), t2)):
        v = decide_limit_sure(m, "eventually", goal, start, cache=cache)
        if not (v.answer and _certified(m, goal, start, v.certificate, cache, chains)):
            return False
    return True


def check_certificates(ctx):
    """Every classic yes-certificate proves its cell on support masks."""
    a = ctx.analysis
    for (mode, win), v in a.verdicts.items():
        if win in ("sure", "almost-sure", "limit-sure") and v.answer and not (
                v.certificate and _certified(a.mdp, a.target, a.s0, v.certificate,
                                             a.cache, ctx.pre_chains)):
            return "fail", {"mode": mode, "win": win}
    return "pass", {}


ALL_CHECKS = {
    "lasso-integrity": check_lasso_integrity,
    "step-decay-cap": check_step_decay_cap,
    "eventually-isolation": check_eventually_isolation,
    "reach-value-cap": check_reach_value_cap,
    "always-prefix-dip": partial(_prefix_dip, "always", "sure", "eps_always"),
    "strongly-prefix-dip": partial(_prefix_dip, "strongly", "almost-sure", "eps_strongly"),
    "full-sync-count-cap": partial(_sync_count_cap, "sure"),
    "near-sync-count-cap": partial(_sync_count_cap, "almost-sure"),
    "freezing-lower-bound": check_freezing_bound,
    "positive-definition-sim": check_positive_definition,
    "support-monotonicity": check_support_monotonicity,
    "region-dp-agreement": check_region_dp,
    "witness-soundness": check_witness_soundness,
    "certificate-recheck": check_certificates,
}


def run_checks(analysis, horizon=None, budget=DEFAULT_CHECK_BUDGET,
               enum_depth=DEFAULT_ENUM_DEPTH, names=None):
    """Run the invariant battery, each check named by its `ALL_CHECKS` key;
    budget blowups mark single checks as skipped."""
    ctx = CheckContext(analysis, horizon=horizon, budget=budget, enum_depth=enum_depth)
    results = []
    for name, fn in ALL_CHECKS.items():
        if names is not None and name not in names:
            continue
        try:
            status, info = fn(ctx)
        except BudgetExceeded as exc:
            status, info = "skip", {"reason": str(exc)}
        results.append(CheckResult(name, status, info))
    return results
