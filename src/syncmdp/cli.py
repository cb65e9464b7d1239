"""Command-line front end: analyze a model (full verdict matrix), verify it
against the oracle battery, or print region computations.

Exit codes, all returned by `main`: 0 analysis complete, 1 usage error (any malformed flag),
2 input error (the model document; the file system for --model/--json), 3 guard tripped,
4 internal consistency gate failed (an engine bug, reported with diagnostics),
5 `verify` found a failed oracle check (named on stderr, then a command replaying it).
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys

from .checks import (CheckContext, DEFAULT_CHECK_BUDGET, DEFAULT_ENUM_DEPTH, MAX_HORIZON,
                     run_checks)
from .engine import ConsistencyError, analyze
from .model import (GuardExceeded, Limits, ModelFormatError, SYNC_MODES,
                    WIN_MODES, load_model)
from .regions import (almost_sure_reach_region, mec_decomposition, pre_lasso,
                      reach_layers, sure_safety_region)
from .report import build_report, render_text

REGION_KINDS = ("pre-lasso", "mec", "safety", "reach", "almost-sure")


def int_in(lo, hi=None):
    """argparse type of an integer flag: an integer of at least lo (and at most hi)."""
    def integer(text):   # argparse names a ValueError by this: "invalid integer value"
        value = int(text)
        if value < lo or hi is not None and value > hi:
            span = f"from {lo} to {hi}" if hi is not None else f"of at least {lo}"
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text}")
        return value
    return integer


def query_cell(text):
    """argparse type of --query: the (mode, win) cell named MODE:WINMODE."""
    mode, _, win = text.partition(":")
    if mode not in SYNC_MODES or win not in WIN_MODES:
        raise argparse.ArgumentTypeError(
            f"expected MODE:WINMODE, one of {SYNC_MODES} : {WIN_MODES}, got {text!r}")
    return mode, win


@functools.cache  # parse_args leaves the parser unchanged: build it once per process
def _build_parser():
    parser = argparse.ArgumentParser(prog="syncmdp",
                                     description="Qualitative analysis of synchronizing MDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, target=True):
        p.add_argument("--model", required=True, help="model JSON path")
        if target:
            p.add_argument("--target", required=True, help="named target set")
        p.add_argument("--json", help="write the JSON report to this path")
        p.add_argument("--max-lasso", type=int_in(0), default=Limits.max_lasso,
                       help="guard: longest support lasso explored")
        p.add_argument("--subset-width", type=int_in(0), default=Limits.subset_width,
                       help="guard: widest fixpoint bound the almost-sure weakly search walks "
                            "the subsets of")

    p_an = sub.add_parser("analyze", help="full 4x5 verdict matrix with bounds")
    common(p_an)
    p_an.add_argument("--query", type=query_cell, help="restrict output to one MODE:WINMODE cell")
    p_an.add_argument("--strategies", action="store_true",
                      help="include full witness strategy tables in the JSON report")

    p_ve = sub.add_parser("verify", help="run the oracle invariant battery")
    common(p_ve)
    p_ve.add_argument("--budget", type=int_in(0), default=DEFAULT_CHECK_BUDGET,
                      help="guard: strategy enumeration work budget")
    p_ve.add_argument("--horizon", type=int_in(0, MAX_HORIZON), default=None,
                      help=f"simulation/DP horizon <= {MAX_HORIZON} "
                           "(default max(50, 4*switch), clamped to that bound)")
    p_ve.add_argument("--enum-depth", type=int_in(0), default=DEFAULT_ENUM_DEPTH,
                      help="pure-strategy enumeration depth at tiny scale")

    p_re = sub.add_parser("regions", help="print one region computation")
    common(p_re, target=False)
    p_re.add_argument("--set", required=True, dest="set_name", help="named state set")
    p_re.add_argument("--which", required=True, choices=REGION_KINDS)
    return parser


def _load(args):
    pm = load_model(args.model)
    return pm, Limits(max_lasso=args.max_lasso, subset_width=args.subset_width)


def _named_set(pm, name):
    if name not in pm.targets:
        known = ", ".join(sorted(pm.targets)) or "(none)"
        raise ModelFormatError(f"unknown target {name!r}; model defines: {known}")
    return pm.targets[name]


def _emit(args, obj, text=None):
    """Write json.dumps(obj) to the --json path, if given, and print text (default: that JSON)."""
    data = json.dumps(obj) if args.json or text is None else None
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(data + "\n")
    print(data if text is None else text)


def _analyze(args):
    pm, limits = _load(args)
    return analyze(pm.mdp, pm.initial, _named_set(pm, args.target), limits=limits)


def _cmd_analyze(args):
    report = build_report(_analyze(args), args.target, model_path=args.model,
                          include_strategies=args.strategies)
    if args.query:
        mode, win = args.query
        cell = report["verdicts"][mode][win]
        # self-contained: the cell's bound certificates, not indices into the report's table
        cell = {**cell, "bounds": [report["bounds"][i] for i in cell["bounds"]]}
        _emit(args, cell, f"{mode}:{win} = {cell['answer']}")
    else:
        _emit(args, report, render_text(report))
    return 0


def _cmd_verify(args):
    analysis = _analyze(args)
    results = run_checks(analysis, horizon=args.horizon, budget=args.budget,
                         enum_depth=args.enum_depth)
    report = build_report(analysis, args.target, oracle_results=results,
                          model_path=args.model)
    _emit(args, report, render_text(report))
    failed = [r.name for r in results if r.status == "fail"]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        horizon = CheckContext(analysis, horizon=args.horizon).horizon
        print(shlex.join(["syncmdp", "verify", "--model", args.model, "--target", args.target,
                          "--horizon", str(horizon), "--enum-depth", str(args.enum_depth),
                          "--budget", str(args.budget), "--max-lasso", str(args.max_lasso),
                          "--subset-width", str(args.subset_width)]), file=sys.stderr)
        return 5
    return 0


def _cmd_regions(args):
    pm, limits = _load(args)
    m = pm.mdp
    s = _named_set(pm, args.set_name)
    if args.which == "pre-lasso":
        lasso = pre_lasso(m, s, max_len=limits.max_lasso)
        out = {"supports": [list(x.names(m.states)) for x in lasso.distinct()],
               "k": lasso.start, "r": lasso.period}
    elif args.which == "mec":
        mec = mec_decomposition(m)
        out = {"components": [list(c.names(m.states)) for c in mec.components],
               "union": list(mec.union.names(m.states))}
    elif args.which == "safety":
        out = {"safety": list(sure_safety_region(m, s).names(m.states))}
    elif args.which == "reach":
        out = {"reach": list(reach_layers(m, s)[-1].names(m.states))}
    else:
        out = {"almost-sure": list(almost_sure_reach_region(m, s).names(m.states))}
    _emit(args, out)
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_regions(args)
    except (ModelFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard tripped at stage {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print("internal consistency gate failed (engine bug):", file=sys.stderr)
        for item in exc.violations:
            print(f"  {item}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
