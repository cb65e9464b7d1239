"""Report assembly: JSON schema (versioned) and its writer, and human-readable
rendering for one analyzed model, with optional oracle-check results.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .model import SYNC_MODES, WIN_MODES, SupportSet, format_rational, product_state_names

REPORT_VERSION = 2

# Writers of the leaves by exact type; _scalar also takes their subclasses.
_LEAVES = {str: _quote, int: int.__repr__, type(None): {None: "null"}.__getitem__,
           bool: {True: "true", False: "false"}.__getitem__,
           float: lambda x: ("NaN" if x != x else "Infinity" if x == math.inf
                             else "-Infinity" if x == -math.inf else float.__repr__(x))}


def to_json(obj):
    """`json.dumps(obj, indent=2)`, byte for byte: the one writer of report JSON,
    with one string join per container instead of the stdlib's generators."""
    return _encode(obj, "\n")


def _encode(obj, pad):
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        items = [w(v) if (w := _LEAVES.get(type(v))) else _encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [(_quote(k) if type(k) is str else _key(k)) + ": "
                 + (w(v) if (w := _LEAVES.get(type(v))) else _encode(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    return _scalar(obj)


def _scalar(value):
    for kind in (type(value), str, int, float):  # exact type, then e.g. IntEnum
        if kind in _LEAVES and isinstance(value, kind):
            return _LEAVES[kind](value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key):
    if key is None or isinstance(key, (str, int, float)):
        return _quote(key if isinstance(key, str) else _scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
        "choice": {key + name: {m.actions[a]: format_rational(p)
                                for a, p in forced.get(q, strategy.default).items()}
                   for key, forced, _ in cells for q, name in enumerate(m.states)},
        "update": {key + name: nxt for key, _, nxt in cells for name in m.states},
    }


def _jsonable(value, states, product_names=None):
    if isinstance(value, SupportSet):
        if value.width == len(states):
            return list(value.names(states))
        if product_names is not None and value.width == len(product_names):
            return list(value.names(product_names))
        return list(value)
    if isinstance(value, dict):
        return {k: _jsonable(v, states, product_names) for k, v in value.items()}
    return value


def _verdict_obj(verdict, bounds, m, include_strategies):
    product_names = None
    cert = verdict.certificate
    if cert and "r" in cert:
        # limit-sure certificates carry sets over the counter product
        product_names = product_state_names(m.states, cert["r"])
    return {
        "answer": "yes" if verdict.answer else "no",
        "certificate": _jsonable(cert, m.states, product_names),
        "detail": None if verdict.detail is None else dict(vars(verdict.detail)),
        "bounds": [b.to_obj() for b in bounds],
        "witness": (_strategy_obj(verdict.witness, m) if include_strategies
                    else verdict.witness and verdict.witness.label),
    }


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
            "target": {"name": target_name, "states": list(analysis.target.names(m.states))},
            "end-components": [list(c.names(m.states)) for c in analysis.mec.components],
            "ec-union": list(analysis.mec.union.names(m.states)),
            "support-lasso": {
                "prefix": [list(s.names(m.states)) for s in analysis.lasso.distinct()],
                "loop-start": analysis.lasso.start,
                "period": analysis.lasso.period,
            },
            "pre-lasso": {
                "supports": [list(s.names(m.states)) for s in analysis.target_lasso.distinct()],
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
