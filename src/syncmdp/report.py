"""Report assembly: JSON schema (versioned) and human-readable rendering for
one analyzed model, with optional oracle-check results. Each fact is written
once: each distinct bound certificate in one table that the cells index into.
Sets are written by state name, except the long ones as lowercase hex strings: a
lasso support as a state mask (bit q is state q), and a set over the counter
product M x [r] as one counter mask per state (bit i is counter i). A report
holds only str keys and leaves of the exact types str, int, float, bool and None.
"""

from __future__ import annotations

from .model import SYNC_MODES, WIN_MODES, SupportSet

REPORT_VERSION = 3


def _strategy_obj(strategy, m):
    """A counting strategy in the unchanged `--strategies` table format: its
    choice and update tables expanded over every (memory value, state) pair,
    memory values in order and states in order within each."""
    if strategy is None:
        return None
    cells = [(f"{mem!r}|", forced, repr(strategy.memory[strategy.next(j)]))
             for j, (mem, forced) in enumerate(zip(strategy.memory, strategy.forced))]
    return {
        "label": strategy.label,
        "memory_size": len(strategy.memory),
        "initial_memory": repr(strategy.memory[0]),
        "choice": {key + name: {m.actions[a]: str(p)
                                for a, p in forced.get(q, strategy.default).items()}
                   for key, forced, _ in cells for q, name in enumerate(m.states)},
        "update": {key + name: nxt for key, _, nxt in cells for name in m.states},
    }


def _masks(supports):
    """Supports of M as hex state masks."""
    return [format(s.bits, "x") for s in supports]


def _counter_masks(region, n):
    """A set over M x [r] as one hex counter mask per state, bit i for counter i.
    The set holds <q, i> at bit q r + (r-1-i), so its reversed binary text holds
    state q's counters r-1 down to 0 in the run q r .. q r + r-1: read as a
    binary number, that run has counter i at bit i."""
    r = region.width // n
    text = format(region.bits, f"0{region.width}b")[::-1]
    return [format(int(text[q * r:q * r + r], 2), "x") for q in range(n)]


def _certificate_obj(cert, states):
    if cert is None:
        return None
    return {k: _counter_masks(v, len(states)) if k == "product_region"
            else list(v.names(states)) if isinstance(v, SupportSet) else v
            for k, v in cert.items()}


def build_report(analysis, target_name, oracle_results=None, model_path=None,
                 include_strategies=False):
    """Versioned JSON-ready report for one analysis. Each distinct bound certificate
    is written once, in the top-level "bounds" table; a cell lists its indices."""
    m = analysis.mdp
    table, index = [], {}   # the certificates in first-use order; id -> table index

    def cell(verdict, bounds):
        for b in bounds:
            if id(b) not in index:
                index[id(b)] = len(table)
                table.append(b.to_obj())
        return {
            "answer": "yes" if verdict.answer else "no",
            "certificate": _certificate_obj(verdict.certificate, m.states),
            "bounds": [index[id(b)] for b in bounds],
            "witness": (_strategy_obj(verdict.witness, m) if include_strategies
                        else verdict.witness and verdict.witness.label),
        }

    report = {
        "report-version": REPORT_VERSION,
        "model": {
            "path": model_path,
            "states": list(m.states),
            "actions": list(m.actions),
            "n": m.n,
            "action-count": m.action_count,
            "alpha": str(analysis.alpha),
            "alpha0": str(analysis.alpha0),
            "initial": {m.states[q]: str(p)
                        for q, p in analysis.initial.mass.items()},
            "target": {"name": target_name, "states": list(analysis.target.names(m.states))},
            "end-components": [list(c.names(m.states)) for c in analysis.mec.components],
            "ec-union": list(analysis.mec.union.names(m.states)),
            "support-lasso": {
                "prefix": _masks(analysis.lasso.distinct()),
                "loop-start": analysis.lasso.start,
                "period": analysis.lasso.period,
            },
            "pre-lasso": {
                "supports": _masks(analysis.target_lasso.distinct()),
                "k": analysis.target_lasso.start,
                "r": analysis.target_lasso.period,
            },
            "switch-point": analysis.switch,
        },
        "verdicts": {
            mode: {win: cell(analysis.verdicts[(mode, win)], analysis.bounds[(mode, win)])
                   for win in WIN_MODES}
            for mode in SYNC_MODES
        },
        "bounds": table,
        "oracle": None,
    }
    if oracle_results is not None:
        report["oracle"] = [
            {"name": r.name, "status": r.status, "info": r.info}
            for r in oracle_results
        ]
    return report


def render_text(report):
    """Compact human-readable rendering of a report."""
    model = report["model"]
    lines = []
    lines.append(f"model: n={model['n']} actions={model['action-count']} "
                 f"alpha={model['alpha']} alpha0={model['alpha0']}")
    lines.append(f"target {model['target']['name']} = {{{', '.join(model['target']['states'])}}}"
                 f"  initial support {{{', '.join(model['initial'])}}}")
    ecs = " ".join("{" + ",".join(c) + "}" for c in model["end-components"]) or "(none)"
    lasso = model["support-lasso"]
    lines.append(f"end components: {ecs}   support lasso: loop_start={lasso['loop-start']} "
                 f"period={lasso['period']} switch={model['switch-point']}")
    header = f"{'':12}" + "".join(f"{w:>12}" for w in WIN_MODES)
    lines.append(header)
    for mode in SYNC_MODES:
        row = f"{mode:12}"
        for win in WIN_MODES:
            row += f"{report['verdicts'][mode][win]['answer']:>12}"
        lines.append(row)
    bound_lines = []
    for mode in SYNC_MODES:
        for win in WIN_MODES:
            for i in report["verdicts"][mode][win]["bounds"]:
                b = report["bounds"][i]
                val = b["exact"]
                if b["log10"] is not None and (
                        val is None or isinstance(val, str) and not -6 < b["log10"] < 6):
                    val = f"10^{b['log10']:.2f}"
                bound_lines.append(f"  {mode}/{win}: {b['kind']} = {val}")
    if bound_lines:
        lines.append("bounds:")
        lines.extend(sorted(set(bound_lines)))
    if report["oracle"] is not None:
        lines.append("oracle checks:")
        for item in report["oracle"]:
            extra = ""
            if item["status"] != "pass":
                reason = item["info"].get("reason", "")
                extra = f"  ({reason})" if reason else ""
            lines.append(f"  {item['name']:28} {item['status']}{extra}")
    return "\n".join(lines)
