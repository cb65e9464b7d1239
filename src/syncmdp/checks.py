"""Oracle cross-checks: every inequality and structural invariant the
verdicts imply, verified against exact simulation, backward induction,
brute-force strategy enumeration and support-mask certificates. The simulated
strategies are the analysis's own witnesses (from its memo). `lasso-integrity`
steps the support lasso by its own Post and checks it against boolean matrix
powers at O(log(l + p)) points, and `reach-value-cap` and `region-dp-agreement`
reuse the almost-sure reach region. The mask certificates (`_safe_reach`,
`_certified`) read only supports, and step M x [r] on counter masks. Of the
deciders the battery takes only the uniform and freezing strategies and
`decide_limit_sure`, whose certificates of the two conditions of an almost-sure
weakly verdict it proves in turn.

The checks read trace and profile steps as target numerators over totals and
supports as bit masks; only a value a check reports is a `Fraction` (`rational_obj`).
Each artifact is computed once per analysis in its `CheckContext`: the traces
(one simulation per distinct play, cut per strategy), the target numerator of
each of their steps (`step_masses`), the enumeration depth (read off the
history tree's node counts), the step profile and the Pre^i chains
`lasso-integrity` and the certificates read; no check needs another.
The prefix dips search the pure strategies to depth n only, pruning at the
first step that dips; the full enumeration is built only for the sync caps,
and only at a depth whose traces can break their 2^n cap.

A check returns `(status, info)`; `run_checks` names its `CheckResult` by the
check's `ALL_CHECKS` key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import or_

from .adversarial import _freezing, _uniform
from .bounds import compute_bound
from .classic import decide_limit_sure
from .model import BudgetExceeded, ONE, SupportSet, _iter_bits, rational_obj
from .oracle import (_clears, _numerator_in, admitted_tree_sizes, enumerate_pure_strategies,
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
        self.pre_chains = {}   # the Pre^i(y) chains by start mask y, read by _pre_power

    @cached_property
    def traces(self):
        """One trace per strategy the checks read (uniform and freezing play, the
        witnesses, in that order), to the longest window a check reads of it, and
        at least to step n, which the prefix dips read at any horizon.
        Each distinct play is simulated once, to the longest window among its
        strategies, and every label gets its own cut of the shared step dicts."""
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
        horizons = {label: max(self.horizon, m.n, self.windows.get(label, 0))
                    for label in strategies}
        keys = {label: _play_key(s) for label, s in strategies.items()}
        plays = {}   # play key -> [the strategy of its first label, the longest horizon]
        for label, s in strategies.items():
            play = plays.setdefault(keys[label], [s, 0])
            play[1] = max(play[1], horizons[label])
        simulated = {key: simulate(m, s, a.initial, h) for key, (s, h) in plays.items()}
        return {label: replace(simulated[keys[label]].cut(h), strategy_label=label)
                for label, h in horizons.items()}

    @cached_property
    def windows(self):
        """The last step a check reads past the horizon, by strategy: switch + period of
        uniform play, switch + 3 N_adversarial of freezing play (on bounded strongly
        yes) and the last step each sure witness claims."""
        a = self.analysis
        windows = {"uniform": a.switch + a.lasso.period}
        nsteps = _bound(a, ("strongly", "bounded"), "N_adversarial")
        if nsteps is not None:
            windows["freezing"] = a.switch + 3 * nsteps.value
        for _, label, steps in self.claims:
            windows[label] = max(windows.get(label, 0), steps[-1])
        return windows

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
    def step_masses(self):
        """`_step_masses` of the simulated traces to their full windows (and of the
        enumerated ones, once built): the one table every check reads."""
        return _step_masses(self.analysis.target, self.traces.values())

    @cached_property
    def count_traces(self):
        """(traces, masses) for the prefix dips and sync-count caps: the simulated
        traces cut to the horizon or to step n, the later, and `step_masses`."""
        cut = max(self.horizon, self.analysis.mdp.n)
        return [t.cut(cut) for t in self.traces.values()], self.step_masses

    @cached_property
    def reach_region(self):
        """The almost-sure reach region of the target."""
        return almost_sure_reach_region(self.analysis.mdp, self.analysis.target)

    @cached_property
    def tree_sizes(self):
        """The history tree's decision-node count at each horizon up to the
        enumeration depth (`oracle.admitted_tree_sizes`; empty for n > 4)."""
        a = self.analysis
        return (admitted_tree_sizes(a.mdp, a.initial, self.enum_depth, self.budget)
                if a.mdp.n <= 4 else [])

    @property
    def enumeration_depth(self):
        """The deepest horizon up to `enum_depth` that the budget admits for the
        pure-strategy enumeration (n <= 4), or None; read off the node counts,
        without enumerating."""
        return len(self.tree_sizes) - 1 if self.tree_sizes else None

    @cached_property
    def enumerated(self):
        """(depth, traces): the enumeration depth and the trace of every pure
        strategy at it, built on first read, its steps' target numerators added
        to `step_masses`; only the sync caps read it, and only at a depth past 2^n."""
        depth = self.enumeration_depth
        if depth is None:
            return None, []
        a = self.analysis
        traces = list(enumerate_pure_strategies(a.mdp, a.initial, depth, budget=self.budget))
        self.step_masses.update(_step_masses(a.target, traces))
        return depth, traces


def _step_masses(t, traces):
    """{id(step): (target numerator, total)} of each distinct step dict of the
    traces (a prefix several traces share is one), summed once."""
    masses = {}
    for trace in traces:
        for nums, total in zip(trace.nums, trace.totals):
            if id(nums) not in masses:
                masses[id(nums)] = _numerator_in(t, nums), total
    return masses


def _play_key(strategy):
    """What determines the trace of `strategy`: the one action row it plays at
    every position and state, by value and without zero entries (as `simulate`
    reads it), or else its label, which makes it a play of its own."""
    rows = {tuple((a, p) for a, p in row.items() if p) for row in strategy.rows()}
    return rows.pop() if len(rows) == 1 else strategy.label


def rows_image(rows, s):
    """Row-or of a boolean matrix over a source support."""
    return SupportSet(s.width, reduce(or_, (rows[q] for q in s), 0))


def _bool_mul(a, b):
    return [reduce(or_, (b[q] for q in _iter_bits(row)), 0) for row in a]


def matrix_squares(m, i):
    """M^(2^j) for each j with 2^j <= i (M's rows are m.post), each the square
    of the one before."""
    squares = []
    while i >> len(squares):
        squares.append(_bool_mul(squares[-1], squares[-1]) if squares else list(m.post))
    return squares


def check_lasso_integrity(ctx):
    """Lasso closure bounds and closure, Post and Pre steps, and matrix-power agreement.

    The support lasso starts at s0, steps by Post and closes on its loop, so
    every later step repeats the loop. Boolean matrix powers, by repeated
    squaring, confirm its supports at l, at l + p and at the powers of two up
    to l + p: O(log(l + p)) matrix products in all. The predecessor lasso is
    read against the chain Pre^i(T) of `ctx.pre_chains`."""
    a = ctx.analysis
    m, lasso = a.mdp, a.lasso
    l, p = lasso.start, lasso.period
    if l + p > 2 ** m.n:
        return "fail", {"reason": f"closure {l}+{p} exceeds 2^n"}
    supports = lasso.supports
    if supports[0] != a.s0 or supports[l + p:] != (supports[l],):
        return "fail", {"reason": "support lasso does not run from s0 to its loop"}
    for i in range(l + p):
        if rows_image(m.post, supports[i]) != supports[i + 1]:
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
    if k + r > 2 ** m.n:
        return "fail", {"reason": "predecessor lasso exceeds 2^n"}
    if tl.supports[0] != a.target or tl.supports[k + r:] != (tl.supports[k],):
        return "fail", {"reason": "predecessor lasso does not run from the target to its loop"}
    for i in range(k + r):
        if _pre_power(m, a.target.bits, i + 1, ctx.pre_chains) != tl.supports[i + 1].bits:
            return "fail", {"reason": f"predecessor step broken at {i}"}
    return "pass", {"loop_start": l, "period": p, "pre_k": k, "pre_r": r}


def _under_cap(profile, cap, ratio=ONE):
    """(i, mass) of the first profile step i whose mass exceeds 1 - cap * ratio^i, else
    (None, the least slack (1 - cap * ratio^i) - mass), by integer cross-multiplication."""
    num, den = cap.numerator, cap.denominator
    ratio_num, ratio_den = ratio.numerator, ratio.denominator
    least = None   # (numerator, denominator) of the least slack so far
    for i, (v, total) in enumerate(profile):
        slack, scale = (den - num) * total - v * den, den * total
        if slack < 0:
            return i, Fraction(v, total)
        if least is None or slack * least[1] < least[0] * scale:
            least = slack, scale
        num, den = num * ratio_num, den * ratio_den
    return None, Fraction(*least)


def check_step_decay_cap(ctx):
    """Not sure-eventually: optimal mass at step i stays below 1 - alpha0*alpha^i."""
    a = ctx.analysis
    if a.answer("eventually", "sure"):
        return "skip", {"reason": "sure eventually holds"}
    step, value = _under_cap(ctx.profile, a.alpha0, a.alpha)
    if step is not None:
        return "fail", {"step": step, "value": rational_obj(value)}
    return "pass", {"horizon": ctx.horizon, "min_slack": rational_obj(value)}


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
        return "fail", {"step": step, "value": rational_obj(value), "eps": rational_obj(eps)}
    return "pass", {"eps_log10": cert.log10, "observed_gap": rational_obj(value + eps)}


def check_reach_value_cap(ctx):
    """Outside the almost-sure reach region the reach value is capped for good."""
    a = ctx.analysis
    if a.s0 <= ctx.reach_region:
        return "skip", {"reason": "initial support is almost-sure for reach"}
    cap = compute_bound("lemma1_reach", a.mdp.n, a.mdp.action_count,
                        a.alpha, a.alpha0).value
    step, value = _under_cap(ctx.profile, cap)
    if step is not None:
        return "fail", {"step": step, "value": rational_obj(value)}
    return "pass", {"cap": rational_obj(cap), "observed_gap": rational_obj(value + cap)}


def _prefix_dip(mode, win, kind, ctx):
    """Not `win` `mode`: every strategy has a step i <= n with target mass at
    most 1 - eps (the per-step optimum need not dip: strategies may dip at
    different steps). Tested on each simulated trace, whatever the horizon
    (each has n + 1 steps), then, when the enumeration depth is at least n, on
    every pure strategy, by a search to depth n pruned at each step that dips.
    Steps 0..n read only the picks at the nodes of depth < n, which come first,
    so the first strategy found is named as the full enumeration would name
    it: its picks, then 0 at each node of depth n .. depth - 1."""
    a = ctx.analysis
    if a.answer(mode, win):
        return "skip", {"reason": f"{win} {mode} holds"}
    cert = _bound(a, (mode, win), kind)
    if cert is None or cert.value is None:
        return "skip", {"reason": "no exact bound"}
    n, t = a.mdp.n, a.target
    threshold = 1 - cert.value
    traces, masses = ctx.count_traces
    found = next((trace for trace in traces if all(
        _clears(*masses[id(nums)], threshold) for nums in trace.nums[:n + 1])), None)
    depth = ctx.enumeration_depth
    if found is None and depth is not None and depth >= n:
        found = next(enumerate_pure_strategies(
            a.mdp, a.initial, n, ctx.budget,
            keep=lambda nums, total: _clears(_numerator_in(t, nums), total, threshold)), None)
        if found is not None:
            pad = ",0" * (ctx.tree_sizes[depth] - ctx.tree_sizes[n])
            found = replace(found, strategy_label=found.strategy_label[:-1] + pad + "]")
            masses = _step_masses(t, [found])
    if found is None:
        return "pass", {"eps": rational_obj(cert.value)}
    return "fail", {"eps": rational_obj(cert.value), "strategy": found.strategy_label,
                    "prefix": [rational_obj(Fraction(*masses[id(nums)]))
                               for nums in found.nums[:n + 1]]}


def _synced(masses, eps=None):
    """The keys of the synchronized steps among `masses`: all mass in the target
    (eps None), or mass strictly above 1 - eps. A step short of full mass is at
    least 1/total short of 1, so for a total with 0 < eps * total <= 1 (one
    test per distinct total) a step is synchronized iff v == total; only the
    steps over the other totals are cross-multiplied."""
    num, den = (0, 1) if eps is None else (eps.numerator, eps.denominator)
    exact = {}   # per distinct total: whether v == total decides
    synced = set()
    for key, (v, total) in masses.items():
        full = exact.get(total)
        if full is None:
            full = exact[total] = eps is None or 0 < num * total <= den
        if v == total if full else v * den > (den - num) * total:   # v / total > 1 - eps
            synced.add(key)
    return synced


def _sync_count_cap(win, ctx):
    """Not `win` weakly: at most 2^n synchronized positions along any strategy.

    Sure: positions with all mass in the target. Almost-sure: positions with
    mass strictly above 1 - eps_weakly. Counted on the simulated traces, and on
    the enumerated ones when their depth + 1 steps exceed 2^n. Skipped when no
    trace has more than 2^n steps, as none can then exceed the cap.
    """
    a = ctx.analysis
    if a.answer("weakly", win):
        return "skip", {"reason": f"{win} weakly holds"}
    cap = 2 ** a.mdp.n
    traces, masses = ctx.count_traces
    depth = ctx.enumeration_depth
    deep = depth is not None and depth + 1 > cap
    if not deep and all(len(trace.nums) <= cap for trace in traces):
        return "skip", {"reason": f"no trace has more than 2^n = {cap} steps "
                                  f"at horizon {ctx.horizon}"}
    eps = None
    if win == "almost-sure":
        if a.mdp.n < 2:
            return "skip", {"reason": "eps_weakly undefined for n=1"}
        cert = _bound(a, ("weakly", win), "eps_weakly")
        if cert is None or cert.value is None:
            return "skip", {"reason": "no exact bound"}
        eps = cert.value
    if deep:
        traces = traces + ctx.enumerated[1]   # which adds their steps to `masses`
    synced = _synced(masses, eps)
    for trace in traces:
        count = 0
        for nums in trace.nums:
            if id(nums) in synced:
                count += 1
        if count > cap:
            return "fail", {"strategy": trace.strategy_label, "count": count}
    info = {"cap": cap, "enumeration_depth": depth}
    if eps is not None:
        info["enumerated"] = 0 if depth is None else a.mdp.action_count ** ctx.tree_sizes[depth]
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
    steps, masses = ctx.traces["freezing"].nums, ctx.step_masses
    start = a.switch + nsteps.value
    for i in range(start, ctx.windows["freezing"] + 1):
        v, total = masses[id(steps[i])]
        if not _clears(v, total, cert.value, strict=False):
            return "fail", {"step": i, "mass": rational_obj(Fraction(v, total)),
                            "eps": rational_obj(cert.value)}
    return "pass", {"from_step": start, "to_step": ctx.windows["freezing"],
                    "eps_log10": cert.log10}


def check_positive_definition(ctx):
    """Positive verdicts match the definition on one extra lasso period of play."""
    a = ctx.analysis
    window = ctx.windows["uniform"]
    masses = ctx.step_masses
    hits = [masses[id(nums)][0] > 0 for nums in ctx.traces["uniform"].nums[:window + 1]]
    l = a.lasso.start
    facts = {"eventually": any(hits), "always": all(hits),
             "weakly": any(hits[l:]), "strongly": all(hits[l:])}
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
        if uni[i] is frz[i]:   # a step of one play both share
            continue
        su = _mask(uni[i])
        sf = _mask(frz[i])
        if sf & ~su:
            return "fail", {"step": i, "reason": "freezing support escapes uniform"}
        if i >= a.switch and (sf ^ su) & union:
            return "fail", {"step": i, "reason": "EC-intersection mismatch"}
    return "pass", {"switch": a.switch}


def _mask(nums):
    """The support of a trace step as a bit mask."""
    mask = 0
    for q in nums:
        mask |= 1 << q
    return mask


def _safe_reach(m, t, y, r=1):
    """The states of M x [r] (r = 1 is M) that reach t through actions keeping all
    their successors in y: from those of y, uniform play over such actions stays in
    y and reaches t from all of it, so it reaches t almost surely. A mask holds <q, i>
    at bit q r + (r-1-i): one r-bit block per state, and a step from counter i lands
    on counter i-1 mod r, so seen from a predecessor a block is rotated right."""
    def rot(blocks):   # per state, the counters whose step lands in the state's block
        return [b >> 1 | (b & 1) << r - 1 for b in blocks]
    tb, yb = ([bits >> q * r & (1 << r) - 1 for q in range(m.n)] for bits in (t, y))
    into_y = rot(yb)
    # per state, each action kept at some counter of y - t: (those counters, its successors)
    kept = []
    for row, tq, yq in zip(m.delta, tb, yb):
        acts = []
        for d in row:
            k = yq & ~tq
            for p in d.mass:
                k &= into_y[p]
            if k:
                acts.append((k, d.mass))
        kept.append(acts)
    reached, grown = None, tb
    while grown != reached:
        reached, into = grown, rot(grown)
        grown = []
        for b, acts in zip(reached, kept):
            for k, succs in acts:
                hit = 0
                for p in succs:
                    hit |= into[p]
                b |= k & hit
            grown.append(b)
    return sum(b << q * r for q, b in enumerate(reached))


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
    masses = ctx.step_masses
    for mode, label, steps in ctx.claims:
        nums = ctx.traces[label].nums
        for i in steps:
            v, total = masses[id(nums[i])]
            if v != total:
                return "fail", {"mode": f"sure {mode}", "step": i}
    return "pass", {}


def _pre(m, y):
    """Mask Pre: the states with an action keeping all its successors in the mask y."""
    out, pre = ~y, 0
    for q, row in enumerate(m.succ):
        for s in row:
            if not s & out:
                pre |= 1 << q
                break
    return pre


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


def _certified(m, t, s0, cert, cache, chains):
    """Whether the yes-certificate `cert` proves its cell for target t from s0 on masks
    of `succ`, and for almost-sure weakly the limit-sure ones of its two conditions,
    decided through the memo `cache`. `chains` keeps the Pre^i chains it reads."""
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
    if kind == "limit-sure-eventually":   # via the counter product, from s0 x {phase}
        region, phase = cert["product_region"].bits, cert["phase"]
        goal = sum(1 << q * r + r - 1 for q in cert["R"])
        return (0 <= phase < r and region & ~_safe_reach(m, goal, region, r) == 0
                and sum(1 << q * r + r - 1 - phase for q in s0) & ~region == 0)
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


def run_checks(analysis, horizon=None, budget=DEFAULT_CHECK_BUDGET, enum_depth=DEFAULT_ENUM_DEPTH):
    """Run the invariant battery, each check named by its `ALL_CHECKS` key;
    budget blowups mark single checks as skipped."""
    ctx = CheckContext(analysis, horizon=horizon, budget=budget, enum_depth=enum_depth)
    results = []
    for name, fn in ALL_CHECKS.items():
        try:
            status, info = fn(ctx)
        except BudgetExceeded as exc:
            status, info = "skip", {"reason": str(exc)}
        results.append(CheckResult(name, status, info))
    return results
