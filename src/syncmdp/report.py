"""Report assembly: JSON schema (versioned) and human-readable rendering for
one analyzed model, with optional oracle-check results.
"""

from __future__ import annotations

from dataclasses import asdict

from .model import SYNC_MODES, WIN_MODES, SupportSet, format_rational, product_state_names

REPORT_VERSION = 1


def _names(support, states):
    return list(support.names(states))


def _strategy_obj(strategy, m):
    if strategy is None:
        return None
    return {
        "label": strategy.label,
        "memory_size": len(strategy.memory),
        "initial_memory": repr(strategy.initial_memory),
        "choice": {f"{mem!r}|{m.states[q]}":
                   {m.actions[a]: format_rational(p) for a, p in row.items()}
                   for (mem, q), row in strategy.choice.items()},
        "update": {f"{mem!r}|{m.states[q]}": repr(nxt)
                   for (mem, q), nxt in strategy.update.items()},
    }


def _jsonable(value, states, product_names=None):
    if isinstance(value, SupportSet):
        if value.width == len(states):
            return _names(value, states)
        if product_names is not None and value.width == len(product_names):
            return _names(value, product_names)
        return list(value)
    if isinstance(value, dict):
        return {k: _jsonable(v, states, product_names) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, states, product_names) for v in value]
    if hasattr(value, "numerator") and hasattr(value, "denominator") \
            and not isinstance(value, int):
        return format_rational(value)
    return value


def _verdict_obj(verdict, bounds, m, include_strategies):
    product_names = None
    cert = verdict.certificate
    if cert and "r" in cert:
        # limit-sure certificates carry sets over the counter product
        product_names = product_state_names(m.states, cert["r"])
    out = {
        "answer": "yes" if verdict.answer else "no",
        "certificate": _jsonable(cert, m.states, product_names),
        "detail": None if verdict.detail is None else asdict(verdict.detail),
        "bounds": [b.to_obj() for b in bounds],
    }
    if include_strategies:
        out["witness"] = _strategy_obj(verdict.witness, m)
    else:
        out["witness"] = verdict.witness.label if verdict.witness else None
    return out


def build_report(analysis, target_name, oracle_results=None, model_path=None,
                 include_strategies=False):
    """Versioned JSON-ready report for one analysis."""
    m = analysis.mdp
    report = {
        "report-version": REPORT_VERSION,
        "model": {
            "path": model_path,
            "states": list(m.states),
            "actions": list(m.actions),
            "n": m.n,
            "action-count": m.action_count,
            "alpha": format_rational(analysis.alpha),
            "alpha0": format_rational(analysis.alpha0),
            "initial": {m.states[q]: format_rational(p)
                        for q, p in analysis.initial.mass.items()},
            "target": {"name": target_name, "states": _names(analysis.target, m.states)},
            "end-components": [_names(c, m.states) for c in analysis.mec.components],
            "ec-union": _names(analysis.mec.union, m.states),
            "support-lasso": {
                "prefix": [_names(s, m.states) for s in analysis.lasso.distinct()],
                "loop-start": analysis.lasso.start,
                "period": analysis.lasso.period,
            },
            "pre-lasso": {
                "supports": [_names(s, m.states) for s in analysis.target_lasso.distinct()],
                "k": analysis.target_lasso.start,
                "r": analysis.target_lasso.period,
            },
            "switch-point": analysis.switch,
        },
        "verdicts": {
            mode: {win: _verdict_obj(analysis.verdicts[(mode, win)],
                                     analysis.bounds[(mode, win)], m, include_strategies)
                   for win in WIN_MODES}
            for mode in SYNC_MODES
        },
        "oracle": None,
    }
    if oracle_results is not None:
        report["oracle"] = [
            {"name": r.name, "status": r.status, "info": _jsonable(r.info, m.states)}
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
            for b in report["verdicts"][mode][win]["bounds"]:
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
