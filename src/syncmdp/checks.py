"""Oracle cross-checks: every inequality and structural invariant the
verdicts imply, verified against exact simulation, backward induction, and
brute-force strategy enumeration. The simulated strategies are the analysis's
own witnesses (from its memo), and four checks reuse engine primitives:
`lasso-integrity` (matrix powers), `reach-value-cap` and `region-dp-agreement`
(almost_sure_reach_region) and `certificate-recheck` (recheck_certificate).

The checks read a trace step as its target numerator over its total and its
support as a bit mask; a `Fraction` is built only for a value a check reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from .adversarial import _freezing, _uniform, matrix_power_witness, post_image, rows_image
from .bounds import compute_bound
from .classic import recheck_certificate
from .model import BudgetExceeded, ONE
from .oracle import (_clears, _numerator_in, enumerate_pure_strategies,
                     max_mass_at_step, max_reach_values, simulate)
from .regions import almost_sure_reach_region

REGION_DP_HORIZON = 200
REGION_DP_GAP = Fraction(1, 1 << 20)


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


class CheckContext:
    """Shared simulation artifacts for one analyzed instance, each built on first use."""

    def __init__(self, analysis, horizon=None, budget=DEFAULT_CHECK_BUDGET,
                 enum_depth=DEFAULT_ENUM_DEPTH):
        self.analysis = analysis
        self.budget = budget
        self.enum_depth = enum_depth
        self.horizon = horizon if horizon is not None else max(50, 4 * analysis.switch)

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
        # read past the horizon: the sure witnesses to the step their claim
        # first pins (the countdown's k, the cycle's k + r, n for strongly)
        windows = {"uniform": a.switch + a.lasso.period}
        nsteps = _bound(a, ("strongly", "bounded"), "N_adversarial")
        if nsteps is not None:
            windows["freezing"] = a.switch + 3 * nsteps.value
        for mode, window in (("eventually", lambda cert: cert["k"]),
                             ("weakly", lambda cert: cert["k"] + cert["r"]),
                             ("strongly", lambda cert: m.n)):
            v = a.verdicts[(mode, "sure")]
            if v.witness is not None:
                label = v.witness.label
                windows[label] = max(windows.get(label, 0), window(v.certificate))
        return {label: simulate(m, s, a.initial, max(self.horizon, windows.get(label, 0)))
                for label, s in strategies.items()}

    @cached_property
    def profile(self):
        """The optimal target mass at each step, to the horizon and at least to
        step n (the prefix dips read its first n + 1 values)."""
        a = self.analysis
        return max_mass_at_step(a.mdp, a.target, a.initial, max(self.horizon, a.mdp.n))

    @cached_property
    def horizon_profile(self):
        """The profile cut to the horizon."""
        return self.profile[:self.horizon + 1]

    @cached_property
    def count_traces(self):
        """(traces, masses) for the sync-count caps: the simulated traces cut to the
        horizon, then the enumerated ones; masses[id(step)] is (target numerator,
        total) of each distinct step dict (a prefix the enumerated strategies share
        is one), summed once."""
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
        if a.mdp.n <= 4:
            for h in range(self.enum_depth, -1, -1):
                try:
                    return h, list(enumerate_pure_strategies(a.mdp, a.initial, h,
                                                             budget=self.budget))
                except BudgetExceeded:
                    pass
        return None, []


def check_lasso_integrity(ctx):
    """Lasso closure bounds, matrix-power agreement, and one extra period."""
    a = ctx.analysis
    lasso = a.lasso
    l, p = lasso.start, lasso.period
    if l + p > 2 ** a.mdp.n:
        return CheckResult("lasso-integrity", "fail",
                           {"reason": f"closure {l}+{p} exceeds 2^n"})
    for i in range(l + p + 1):
        if rows_image(matrix_power_witness(a.mdp, i), a.s0) != lasso.at(i):
            return CheckResult("lasso-integrity", "fail",
                               {"reason": f"matrix power disagrees at step {i}"})
    cur = lasso.at(l)
    for j in range(2 * p + 1):
        if cur != lasso.at(l + j):
            return CheckResult("lasso-integrity", "fail",
                               {"reason": f"period broken at loop offset {j}"})
        cur = post_image(a.mdp, cur)
    tl = a.target_lasso
    k, r = tl.start, tl.period
    if k + r > 2 ** a.mdp.n:
        return CheckResult("lasso-integrity", "fail",
                           {"reason": "predecessor lasso exceeds 2^n"})
    for i in range(k, k + 3 * r + 1):
        if tl.at(i) != tl.at(i + r):
            return CheckResult("lasso-integrity", "fail",
                               {"reason": f"predecessor period broken at {i}"})
    return CheckResult("lasso-integrity", "pass", {"loop_start": l, "period": p,
                                                   "pre_k": k, "pre_r": r})


def check_step_decay_cap(ctx):
    """Not sure-eventually: optimal mass at step i stays below 1 - alpha0*alpha^i."""
    a = ctx.analysis
    if a.answer("eventually", "sure"):
        return CheckResult("step-decay-cap", "skip", {"reason": "sure eventually holds"})
    alpha_i = a.alpha0
    slack = None
    for i, v in enumerate(ctx.horizon_profile):
        if v > 1 - alpha_i:
            return CheckResult("step-decay-cap", "fail", {"step": i, "value": str(v)})
        gap = (1 - alpha_i) - v
        slack = gap if slack is None or gap < slack else slack
        alpha_i *= a.alpha
    return CheckResult("step-decay-cap", "pass",
                       {"horizon": ctx.horizon, "min_slack": str(slack)})


def check_eventually_isolation(ctx):
    """Not limit-sure eventually: the eps_eventually of its cell isolates the value."""
    a = ctx.analysis
    if a.answer("eventually", "limit-sure"):
        return CheckResult("eventually-isolation", "skip", {"reason": "limit-sure holds"})
    cert = _bound(a, ("eventually", "limit-sure"), "eps_eventually")
    if cert is None or cert.value is None:
        return CheckResult("eventually-isolation", "skip", {"reason": "no exact bound"})
    eps = cert.value
    worst = min((1 - v for v in ctx.horizon_profile), default=ONE)
    if any(v > 1 - eps for v in ctx.horizon_profile):
        return CheckResult("eventually-isolation", "fail", {"eps": str(eps)})
    return CheckResult("eventually-isolation", "pass",
                       {"eps_log10": cert.log10, "observed_gap": str(worst)})


def check_reach_value_cap(ctx):
    """Outside the almost-sure reach region the reach value is capped for good."""
    a = ctx.analysis
    if a.s0 <= ctx.reach_region:
        return CheckResult("reach-value-cap", "skip",
                           {"reason": "initial support is almost-sure for reach"})
    cap = compute_bound("lemma1_reach", a.mdp.n, a.mdp.action_count,
                        a.alpha, a.alpha0).value
    for i, v in enumerate(ctx.horizon_profile):
        if v > 1 - cap:
            return CheckResult("reach-value-cap", "fail", {"step": i, "value": str(v)})
    worst = min(1 - v for v in ctx.horizon_profile)
    return CheckResult("reach-value-cap", "pass",
                       {"cap": str(cap), "observed_gap": str(worst)})


def _prefix_dip(mode, win, kind, ctx):
    """Not `win` `mode`: within the first n steps the optimum dips below 1 - eps.

    Note the per-strategy position guarantee does not imply this prefix form
    in general (different strategies may dip at different steps), so a failure
    here is reported with the full profile prefix for inspection.
    """
    name = f"{mode}-prefix-dip"
    a = ctx.analysis
    if a.answer(mode, win):
        return CheckResult(name, "skip", {"reason": f"{win} {mode} holds"})
    cert = _bound(a, (mode, win), kind)
    if cert is None or cert.value is None:
        return CheckResult(name, "skip", {"reason": "no exact bound"})
    prefix = ctx.profile[:a.mdp.n + 1]
    if min(prefix) <= 1 - cert.value:
        return CheckResult(name, "pass", {"eps": str(cert.value)})
    return CheckResult(name, "fail",
                       {"eps": str(cert.value), "prefix": [str(v) for v in prefix]})


def _sync_count_cap(name, win, ctx):
    """Not `win` weakly: at most 2^n synchronized positions along any strategy.

    Sure: positions with all mass in the target. Almost-sure: positions with
    mass strictly above 1 - eps_weakly.
    """
    a = ctx.analysis
    if a.answer("weakly", win):
        return CheckResult(name, "skip", {"reason": f"{win} weakly holds"})
    if win == "sure":
        threshold, strict = ONE, False
    else:
        if a.mdp.n < 2:
            return CheckResult(name, "skip", {"reason": "eps_weakly undefined for n=1"})
        cert = _bound(a, ("weakly", win), "eps_weakly")
        if cert is None or cert.value is None:
            return CheckResult(name, "skip", {"reason": "no exact bound"})
        threshold, strict = 1 - cert.value, True
    cap = 2 ** a.mdp.n
    depth, enumerated = ctx.enumerated
    traces, masses = ctx.count_traces
    synced = {key for key, (v, total) in masses.items()
              if _clears(v, total, threshold, strict)}
    for trace in traces:
        count = sum(id(nums) in synced for nums in trace.nums)
        if count > cap:
            return CheckResult(name, "fail", {"strategy": trace.strategy_label,
                                              "count": count})
    info = {"cap": cap, "enumeration_depth": depth}
    if strict:
        info["enumerated"] = len(enumerated)
    return CheckResult(name, "pass", info)


def check_freezing_bound(ctx):
    """Bounded strongly: the freezing witness keeps the certified floor forever."""
    a = ctx.analysis
    if not a.answer("strongly", "bounded"):
        return CheckResult("freezing-lower-bound", "skip",
                           {"reason": "not bounded strongly"})
    cert = _bound(a, ("strongly", "bounded"), "eps_adversarial")
    nsteps = _bound(a, ("strongly", "bounded"), "N_adversarial")
    if cert is None or cert.value is None or nsteps is None:
        return CheckResult("freezing-lower-bound", "skip", {"reason": "no exact bound"})
    n_adv = nsteps.value
    h = a.switch + 3 * n_adv
    trace = ctx.traces["freezing"]
    start = a.switch + n_adv
    for i in range(start, h + 1):
        v, total = _numerator_in(a.target, trace.nums[i]), trace.totals[i]
        if not _clears(v, total, cert.value, strict=False):
            return CheckResult("freezing-lower-bound", "fail",
                               {"step": i, "mass": str(Fraction(v, total)),
                                "eps": str(cert.value)})
    return CheckResult("freezing-lower-bound", "pass",
                       {"from_step": start, "to_step": h, "eps_log10": cert.log10})


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
            return CheckResult("positive-definition-sim", "fail",
                               {"mode": mode, "expected": expected})
    return CheckResult("positive-definition-sim", "pass", {"window": window})


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
            return CheckResult("support-monotonicity", "fail",
                               {"step": i, "reason": "freezing support escapes uniform"})
        if i >= a.switch and (sf ^ su) & union:
            return CheckResult("support-monotonicity", "fail",
                               {"step": i, "reason": "EC-intersection mismatch"})
    return CheckResult("support-monotonicity", "pass", {"switch": a.switch})


def _mask(nums):
    """The support of a trace step as a bit mask."""
    return sum(1 << q for q in nums)


def check_region_dp(ctx):
    """The almost-sure reach region matches DP-limit classification per state."""
    a = ctx.analysis
    region = ctx.reach_region
    reach = max_reach_values(a.mdp, a.target, REGION_DP_HORIZON)
    cap = a.alpha ** a.mdp.n
    for q in range(a.mdp.n):
        if q in region:
            if 1 - reach[q] >= REGION_DP_GAP:
                return CheckResult("region-dp-agreement", "fail",
                                   {"state": a.mdp.states[q],
                                    "reason": "winning state did not converge",
                                    "residual": str(1 - reach[q])})
        elif reach[q] > 1 - cap:
            return CheckResult("region-dp-agreement", "fail",
                               {"state": a.mdp.states[q],
                                "reason": "losing state beats the cap"})
    return CheckResult("region-dp-agreement", "pass",
                       {"horizon": REGION_DP_HORIZON, "region": list(region)})


def check_witness_soundness(ctx):
    """Each synthesized classic witness achieves exactly what its verdict claims."""
    a = ctx.analysis
    n = a.mdp.n

    def synced(trace, i):
        """All of step i's mass is in the target."""
        return _numerator_in(a.target, trace.nums[i]) == trace.totals[i]

    v = a.verdicts[("eventually", "sure")]
    if v.answer and v.witness is not None:
        k = v.certificate["k"]
        if not synced(ctx.traces[v.witness.label], k):
            return CheckResult("witness-soundness", "fail",
                               {"mode": "sure eventually", "step": k})

    v = a.verdicts[("always", "sure")]
    if v.answer and v.witness is not None:
        trace = ctx.traces[v.witness.label]
        if not all(synced(trace, i) for i in range(trace.horizon + 1)):
            return CheckResult("witness-soundness", "fail", {"mode": "sure always"})

    v = a.verdicts[("strongly", "sure")]
    if v.answer and v.witness is not None:
        trace = ctx.traces[v.witness.label]
        if not all(synced(trace, i) for i in range(n, max(ctx.horizon, n) + 1)):
            return CheckResult("witness-soundness", "fail", {"mode": "sure strongly"})

    v = a.verdicts[("weakly", "sure")]
    if v.answer and v.witness is not None:
        k, r = v.certificate["k"], v.certificate["r"]
        trace = ctx.traces[v.witness.label]
        for i in range(k, max(ctx.horizon, k + r) + 1, r):
            if not synced(trace, i):
                return CheckResult("witness-soundness", "fail",
                                   {"mode": "sure weakly", "step": i})
    return CheckResult("witness-soundness", "pass", {})


def check_certificates(ctx):
    """Certificates re-verify from region primitives alone."""
    a = ctx.analysis
    for (mode, win), verdict in a.verdicts.items():
        if win in ("sure", "almost-sure", "limit-sure"):
            if not recheck_certificate(a.mdp, verdict):
                return CheckResult("certificate-recheck", "fail",
                                   {"mode": mode, "win": win})
    return CheckResult("certificate-recheck", "pass", {})


ALL_CHECKS = {
    "lasso-integrity": check_lasso_integrity,
    "step-decay-cap": check_step_decay_cap,
    "eventually-isolation": check_eventually_isolation,
    "reach-value-cap": check_reach_value_cap,
    "always-prefix-dip": partial(_prefix_dip, "always", "sure", "eps_always"),
    "strongly-prefix-dip": partial(_prefix_dip, "strongly", "almost-sure", "eps_strongly"),
    "full-sync-count-cap": partial(_sync_count_cap, "full-sync-count-cap", "sure"),
    "near-sync-count-cap": partial(_sync_count_cap, "near-sync-count-cap", "almost-sure"),
    "freezing-lower-bound": check_freezing_bound,
    "positive-definition-sim": check_positive_definition,
    "support-monotonicity": check_support_monotonicity,
    "region-dp-agreement": check_region_dp,
    "witness-soundness": check_witness_soundness,
    "certificate-recheck": check_certificates,
}


def run_checks(analysis, horizon=None, budget=DEFAULT_CHECK_BUDGET,
               enum_depth=DEFAULT_ENUM_DEPTH, names=None):
    """Run the invariant battery; budget blowups mark single checks as skipped."""
    ctx = CheckContext(analysis, horizon=horizon, budget=budget, enum_depth=enum_depth)
    results = []
    for name, fn in ALL_CHECKS.items():
        if names is not None and name not in names:
            continue
        try:
            result = fn(ctx)
        except BudgetExceeded as exc:
            result = CheckResult(name, "skip", {"reason": str(exc)})
        results.append(result)
    return results
