#!/usr/bin/env python3
"""syncmdp benchmark: sweeps of the `analyze` / `verify` CLI over seeded models.

    python3 perfbench/run.py --workload corpus-analyze --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client in one process calls `syncmdp.cli.main` on one model file at a
time (a closed loop, no threads). A run sets the workload up several times
(import, model generation, model-file texts named after `--seed`), writes the
model files once, then sweeps all models repeatedly until `--seconds` have
passed (see `workloads.py` for the tiers). With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
it alternates untraced and traced sweeps and prints the per-layer metrics of
`tracer.py`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The end-to-end times are scaled to a reference machine speed (`speed.py`):
each `cli.main` call is timed between runs of a fixed calibration kernel, and
reported as if the kernel took `speed.REFERENCE_S`; the median set-up is
scaled by the median kernel time of the set-up phase. The raw times are
printed alongside them.

Every report is checked against the stored reference matrices. A model fails
when an exception escapes `cli.main`, the exit code is not 0, its verdict
matrix differs from the reference, or the report's oracle block holds a
"fail"; `correct` is false only when a report was produced and is wrong.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bytecode caches

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, kernel_seconds, scale
from tracer import Tracer
from workloads import (HERE, SRC, WORKLOADS, encode_matrix, load_references,
                       report_matrix)

SETUP_REPEATS = 11
WORK_ROOT = HERE / ".work"
SPAN_DIR = HERE / "out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("models_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))

LAYERS = ("cli", "model", "report", "engine", "regions", "classic", "adversarial",
          "bounds", "checks", "oracle")
CHECK_NAMES = ("lasso-integrity", "step-decay-cap", "eventually-isolation",
               "reach-value-cap", "always-prefix-dip", "strongly-prefix-dip",
               "full-sync-count-cap", "near-sync-count-cap", "freezing-lower-bound",
               "positive-definition-sim", "support-monotonicity", "region-dp-agreement",
               "witness-soundness", "certificate-recheck")
SRC_MODULES = ("__init__", "__main__", "adversarial", "bounds", "checks", "classic",
               "cli", "engine", "examples", "model", "oracle", "randgen", "regions",
               "report")

# span name -> statistics reported for it
SPAN_STATS = {
    "cli.main": ("self_s",),
    "model.load_model": ("calls",),
    "model.parse_model": ("self_s",),
    "report.build_report": ("self_s", "errors"),
    "report.render_text": ("self_s",),
    "engine.analyze": ("calls", "self_s", "total_s"),
    "engine.check_consistency": ("self_s",),
    "regions.pre_lasso": ("calls", "self_s"),
    "regions.pre": ("calls", "self_s"),
    "regions.mec_decomposition": ("self_s",),
    "regions.almost_sure_reach_region": ("calls", "self_s"),
    "regions.sure_safety_region": ("self_s",),
    "classic.decide_sure": ("calls", "self_s"),
    "classic.decide_almost_sure": ("calls", "self_s"),
    "classic.decide_limit_sure": ("calls", "self_s"),
    "classic.recheck_certificate": ("self_s",),
    "adversarial.support_lasso": ("self_s",),
    "adversarial.decide_positive": ("calls", "self_s"),
    "adversarial.decide_bounded": ("calls", "self_s"),
    "adversarial.freezing_strategy": ("calls", "self_s"),
    "adversarial.matrix_power_witness": ("self_s",),
    "bounds.attach_bounds": ("calls", "self_s"),
    "bounds.compute_bound": ("calls", "self_s"),
    "bounds.BoundCert.to_obj": ("calls", "self_s", "errors"),
    "checks.run_checks": ("total_s",),
    **{f"checks.{name}": ("self_s",) for name in CHECK_NAMES},
    "oracle.simulate": ("calls", "self_s"),
    "oracle.max_mass_at_step": ("calls", "self_s"),
    "oracle.max_reach_values": ("calls", "self_s"),
    "oracle.enumerate_pure_strategies": ("self_s",),
    "oracle.count_synchronized_positions": ("calls", "self_s"),
}
COUNTS = {
    "model.bytes_parsed": "bytes", "report.json_bytes": "bytes",
    "regions.pre_lasso.supports": "count", "classic.cache_entries": "count",
    "classic.pre_lasso_misses": "count", "adversarial.support_lasso.len": "count",
    "bounds.compute_bound.distinct_args": "count", "bounds.value_bits": "bits",
    "bounds.formula_only": "count", "checks.fail": "count", "checks.skip": "count",
    "oracle.simulate.steps": "count", "oracle.enumerate_pure_strategies.strategies": "count",
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "errors": "count"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    units.update(COUNTS)
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    for module in SRC_MODULES:
        units[f"src_lines.{module}"] = "lines"
    units["src_lines.total"] = "lines"
    units["trace.overhead_s"] = "s"
    return units


# -- set-up -------------------------------------------------------------------

def rename(doc, rng):
    """A copy of a model document with fresh state and action names. State and
    action indices and the order of the transitions are kept, so the analysis
    does exactly the same work on it. (The transition order sets the order in
    which exact sums are formed: shuffling it changed some large models' times
    by up to 50% with the same call counts.)"""
    states = {s: f"q{k}" for s, k in zip(doc["states"],
                                         rng.sample(range(10 * len(doc["states"])),
                                                    len(doc["states"])))}
    actions = {a: f"act{k}" for a, k in zip(doc["actions"],
                                            rng.sample(range(10 * len(doc["actions"])),
                                                       len(doc["actions"])))}
    transitions = [{"from": states[t["from"]], "action": actions[t["action"]],
                    "to": states[t["to"]], "prob": t["prob"]} for t in doc["transitions"]]
    return {
        "states": [states[s] for s in doc["states"]],
        "actions": [actions[a] for a in doc["actions"]],
        "transitions": transitions,
        "initial": {states[s]: p for s, p in doc["initial"].items()},
        "targets": {name: [states[s] for s in members]
                    for name, members in doc["targets"].items()},
    }


class SetUp:
    """One set-up: a fresh import of the package, the workload's models and the
    text of their model files.

    Only this is timed, with calibration kernel runs before and after it.
    Writing the files is left to `write`: on the test VM the cost of creating
    500 small files moved between 0.012 and 0.38 s with the state of the file
    system, whatever the program did.
    """

    def __init__(self, workload, seed, model_seed, limit):
        self.command = workload.command
        self.dir = None
        before = [kernel_seconds() for _ in range(3)]
        start = perf_counter()
        for name in [m for m in sys.modules if m == "syncmdp" or m.startswith("syncmdp.")]:
            del sys.modules[name]
        importlib.import_module("syncmdp")
        self.cli = importlib.import_module("syncmdp.cli")
        model = sys.modules["syncmdp.model"]
        randgen = importlib.import_module("syncmdp.randgen")
        models = workload.models(randgen, model_seed, limit)
        rng = random.Random(seed)
        self.texts = []
        self.sizes = []
        for inst in models:
            doc = model.model_to_obj(model.ParsedModel(inst.mdp, inst.initial,
                                                       {"target": inst.target}))
            self.texts.append(json.dumps(rename(doc, rng), indent=2))
            self.sizes.append(inst.mdp.n)
        self.seconds = perf_counter() - start
        self.kernels = before + [kernel_seconds() for _ in range(3)]

    def write(self):
        """Write the model files and the command line of each model."""
        self.dir = tempfile.mkdtemp(prefix=f"{self.command}-", dir=WORK_ROOT)
        self.argv = []
        for i, text in enumerate(self.texts):
            path = os.path.join(self.dir, f"m{i:04d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.argv.append([self.command, "--model", path, "--target", "target",
                              "--json", os.path.join(self.dir, f"r{i:04d}.json")])

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class Discard(io.TextIOBase):
    """Console output of the swept calls, thrown away."""

    def write(self, text):
        return len(text)


# -- sweeps and checks ----------------------------------------------------------

def exception_kind(exc):
    """Exception type plus the innermost two syncmdp frames it passed through."""
    frames = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)
              if Path(frame.f_code.co_filename).resolve().is_relative_to(SRC)]
    where = " > ".join(f"{Path(code.co_filename).stem}."
                       f"{getattr(code, 'co_qualname', code.co_name)}"
                       for code in frames[-2:])
    return f"{type(exc).__name__} in {where or '(outside syncmdp)'}"


def sweep(setup, tracer=None, deadline=None):
    """Call cli.main once per model, with a calibration kernel run before the
    first call and after each, stopping early once `deadline` has passed;
    returns (wall_s, latencies, kernel times, outcomes) of the calls made.
    wall_s includes the kernel runs."""
    latencies = []
    outcomes = []
    kernels = [kernel_seconds()]
    main = setup.cli.main  # looked up per sweep, so a traced sweep gets the wrapper
    sink = Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        for i, argv in enumerate(setup.argv):
            if deadline is not None and perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.model = i
            t0 = perf_counter()
            try:
                outcome = main(list(argv))
            except Exception as exc:  # counted as a failed model, with its kind
                t1 = perf_counter()
                outcome = exception_kind(exc)
            else:
                t1 = perf_counter()
            latencies.append(t1 - t0)
            outcomes.append(outcome)
            kernels.append(kernel_seconds())
        wall = perf_counter() - start
    return wall, latencies, kernels, outcomes


def check_outputs(setup, outcomes, references, verify):
    """Failure kind per model (None when correct) and the report bytes read."""
    kinds = []
    report_bytes = 0
    for argv, outcome, ref in zip(setup.argv, outcomes, references):
        out = argv[-1]
        kind = None
        if isinstance(outcome, str):
            kind = outcome
        elif outcome != 0:
            kind = f"exit code {outcome}"
        else:
            try:
                report_bytes += os.path.getsize(out)
                with open(out, encoding="utf-8") as handle:
                    report = json.load(handle)
                got = report_matrix(report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                kind = f"unreadable report ({type(exc).__name__})"
            else:
                if got != ref:
                    kind = "wrong verdict"
                elif verify:
                    oracle = report.get("oracle")
                    if not isinstance(oracle, list):
                        kind = "no oracle block"
                    else:
                        fails = sorted(o.get("name", "?") for o in oracle
                                       if o.get("status") == "fail")
                        if fails:
                            kind = "oracle fail: " + ", ".join(fails)
        # Emptied, not removed: the next sweep writes into the same file, which
        # costs the file system less, and a call that returns 0 without writing
        # its report leaves it empty and fails.
        with contextlib.suppress(FileNotFoundError):
            os.truncate(out, 0)
        kinds.append(kind)
    return kinds, report_bytes


WRONG_OUTPUT = ("wrong verdict", "unreadable report", "no oracle block")


def references_for(workload, model_seed, limit):
    """Reference matrices of the swept models, and where they came from."""
    table = load_references(workload.family)
    if model_seed in table:
        refs = table[model_seed]
        return [refs[i] for i in workload.reference_index(limit)], "stored"
    # A model seed without a stored table: fall back to the engine of this checkout.
    import syncmdp
    from syncmdp import randgen
    models = workload.models(randgen, model_seed, limit)
    refs = [encode_matrix(syncmdp.analyze(m.mdp, m.initial, m.target).answer)
            for m in models]
    return refs, "engine.analyze of this checkout (seed not in refs/)"


# -- the run --------------------------------------------------------------------

def run(workload_name, seed, seconds, trace, limit=None, references=None,
        model_seed=None):
    """One benchmark run: (summary for the report, verdict keys of the result line)."""
    workload = WORKLOADS[workload_name]
    if model_seed is None:
        model_seed = workload.model_seed
    if references is None:
        references, ref_source = references_for(workload, model_seed, limit)
    else:
        ref_source = "given"
    WORK_ROOT.mkdir(exist_ok=True)
    setup = None
    setup_times, kernels = [], []
    try:
        for _ in range(SETUP_REPEATS):
            setup = SetUp(workload, seed, model_seed, limit)
            setup_times.append(setup.seconds)
            kernels.extend(setup.kernels)
        setup.write()
        if len(references) != len(setup.argv):
            raise RuntimeError("reference table does not match the workload size")
        tracer = Tracer() if trace else None
        result = measure(workload, setup, references, seconds, tracer)
    finally:
        if setup is not None:
            setup.close()
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    failed_kinds = result.pop("failed_kinds")
    setup_kernel = statistics.median(kernels)
    kernel = statistics.median(result.pop("kernels"))
    attempted = len(setup.argv)
    failed = sum(1 for k in failed_kinds if k is not None)
    wrong = sum(1 for k in failed_kinds if k is not None and k.startswith(WRONG_OUTPUT))
    summary = {
        "workload": workload.name, "seed": seed, "model_seed": model_seed,
        "command": workload.command,
        "models": attempted, "reference": ref_source,
        "setup_raw_s": setup_times,
        "kernel_ms": kernel * 1e3,
        "setup_kernel_ms": setup_kernel * 1e3,
        "failures": breakdown(failed_kinds, setup.sizes),
        **result,
    }
    if not trace:
        # One set-up is too short to be scaled by the kernel runs next to it:
        # the median of all of them scales the median set-up.
        summary["metrics"]["setup_s"] = scale(statistics.median(setup_times), setup_kernel)
        summary["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        summary["error_rate"] = failed / attempted
    return summary, {"correct": wrong == 0, "attempted": attempted, "failed": failed}


def breakdown(kinds, sizes):
    """Failure counts by kind, each with its counts by state count n."""
    table = {}
    for kind, n in zip(kinds, sizes):
        if kind is not None:
            entry = table.setdefault(kind, {"count": 0, "by_n": Counter()})
            entry["count"] += 1
            entry["by_n"][n] += 1
    return {k: {"count": v["count"], "by_n": dict(sorted(v["by_n"].items()))}
            for k, v in sorted(table.items(), key=lambda kv: -kv[1]["count"])}


def measure(workload, setup, references, seconds, tracer):
    """Sweep until `seconds` pass (at least one whole sweep); traced and
    untraced sweeps alternate when a tracer is given.

    Each call's time is scaled by the faster of the two calibration kernel
    runs around it (`speed.scale`), and a model's latency is the median of
    its scaled times over the run's sweeps. The package keeps no state
    between calls, so every sweep does the same work. `wall_s` is the sum of
    these per-model latencies.
    """
    verify = workload.command == "verify"
    n = len(setup.argv)
    failed_kinds = [None] * n
    walls, traced_walls, layer_rows, kernels = [], [], [], []
    samples = [[] for _ in range(n)]
    traced_samples = [[] for _ in range(n)]

    def checked_sweep(times, tracer=None, deadline=None):
        wall, latencies, kernel_times, outcomes = sweep(setup, tracer, deadline)
        kinds, report_bytes = check_outputs(setup, outcomes, references, verify)
        for i, (lat, kind) in enumerate(zip(latencies, kinds)):
            failed_kinds[i] = failed_kinds[i] or kind
            times[i].append(scale(lat, kernel_times[i], kernel_times[i + 1]))
        kernels.extend(kernel_times)
        return wall, report_bytes

    start = perf_counter()
    while True:
        t0 = perf_counter()
        # The first sweep is whole. After it an untraced run uses all of its
        # time, so its last sweep may stop part-way.
        deadline = start + seconds if walls and tracer is None else None
        walls.append(checked_sweep(samples, deadline=deadline)[0])
        if tracer is not None:
            tracer.reset()
            uninstall = tracer.install()
            try:
                wall, report_bytes = checked_sweep(traced_samples, tracer)
            finally:
                uninstall()
            traced_walls.append(wall)
            layer_rows.append(layer_metrics(tracer, report_bytes))
        step = perf_counter() - t0
        if perf_counter() - start + (0 if tracer is None else step) >= seconds:
            break

    ok = sum(1 for k in failed_kinds if k is None)
    latency = [statistics.median(times) for times in samples]
    result = {"sweeps": len(walls), "sweep_walls": walls, "failed_kinds": failed_kinds,
              "kernels": kernels}
    if tracer is None:
        wall = sum(latency)
        result["metrics"] = {
            "wall_s": wall,
            "models_per_s": ok / wall,
            "latency_p50_ms": statistics.median(latency) * 1e3,
            "latency_p90_ms": statistics.quantiles(latency, n=10, method="inclusive")[8] * 1e3,
        }
        return result
    metrics = {name: statistics.median(row[name] for row in layer_rows)
               for name in per_layer_units() if name in layer_rows[0]}
    metrics.update(src_lines())
    metrics["trace.overhead_s"] = (sum(statistics.median(t) for t in traced_samples)
                                   - sum(latency))
    result["metrics"] = metrics
    result["traced_wall_s"] = statistics.median(traced_walls)
    result["untraced_wall_s"] = statistics.median(walls)
    result["top_level_s"] = statistics.median(row["top_level_s"] for row in layer_rows)
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{workload.name}.tsv.gz")
    return result


def layer_metrics(tracer, report_bytes):
    """Per-layer numbers of one traced sweep."""
    stats, top = tracer.aggregate()
    index = {"calls": 0, "total_s": 1, "self_s": 2, "errors": 3}
    out = {}
    for span, wanted in SPAN_STATS.items():
        row = stats.get(span, [0, 0.0, 0.0, 0])
        for stat in wanted:
            out[f"{span}.{stat}"] = row[index[stat]]
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0)
    out["report.json_bytes"] = report_bytes
    out["classic.pre_lasso_misses"] = tracer.pre_lasso_misses()
    out["bounds.compute_bound.distinct_args"] = len(tracer.bound_args)
    out["oracle.enumerate_pure_strategies.strategies"] = tracer.counts.get(
        "oracle.enumerate_pure_strategies.yielded", 0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(row[2] for name, row in stats.items()
                                           if name.startswith(layer + "."))
    out["top_level_s"] = top
    return out


def src_lines():
    counts = {}
    for module in SRC_MODULES:
        path = SRC / "syncmdp" / f"{module}.py"
        counts[f"src_lines.{module}"] = (
            len(path.read_text("utf-8").splitlines()) if path.exists() else 0)
    counts["src_lines.total"] = sum(
        len(p.read_text("utf-8").splitlines()) for p in (SRC / "syncmdp").glob("*.py"))
    return counts


# -- output ---------------------------------------------------------------------

def render(summary, trace):
    lines = [f"workload {summary['workload']}  ({summary['command']})  seed {summary['seed']}  "
             f"model seed {summary['model_seed']}  "
             f"models {summary['models']}  sweeps {summary['sweeps']}  "
             f"reference: {summary['reference']}"]
    metrics = summary["metrics"]
    if not trace:
        raw = ", ".join(f"{s:.4f}" for s in summary["setup_raw_s"])
        lines.append(f"  times at reference speed; calibration kernel median "
                     f"{summary['kernel_ms']:.4f} ms against {REFERENCE_S * 1e3:g} ms")
        notes = {
            "setup_s": f"median of {len(summary['setup_raw_s'])} set-ups, raw {raw}; "
                       f"kernel median {summary['setup_kernel_ms']:.4f} ms meanwhile",
            "wall_s": "sum of per-model latencies; raw sweep walls: "
                      + ", ".join(f"{w:.3f}" for w in summary["sweep_walls"]),
            "models_per_s": "models completed correctly / wall_s",
            "latency_p50_ms": f"per-model median cli.main time, {summary['models']} models",
            "latency_p90_ms": "failed models count with their time to failure",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, unit in END_TO_END:
            lines.append(f"  {name:16} {metrics[name]:14.4f} {unit:5} {notes[name]}")
        failed = sum(v["count"] for v in summary["failures"].values())
        lines.append(f"  {'error_rate':16} {summary['error_rate']:14.4f} {'ratio':5} "
                     f"{failed} of {summary['models']} models failed")
    else:
        units = per_layer_units()
        lines.append(f"  traced wall {summary['traced_wall_s']:.4f} s, untraced "
                     f"{summary['untraced_wall_s']:.4f} s, top-level spans "
                     f"{summary['top_level_s']:.4f} s")
        total = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS) or 1.0
        lines.append("  layer self-time shares: " + ", ".join(
            f"{layer} {metrics[f'layer.{layer}.self_s'] / total:.1%}"
            for layer in sorted(LAYERS, key=lambda l: -metrics[f"layer.{l}.self_s"])))
        for name, unit in units.items():
            lines.append(f"  {name:48} {metrics[name]:14.6g} {unit}")
    for kind, entry in summary["failures"].items():
        by_n = ", ".join(f"n={n}: {c}" for n, c in entry["by_n"].items())
        lines.append(f"  failed {entry['count']:4}  {kind}  ({by_n})")
    return "\n".join(lines)


def result_line(summary, verdict, trace):
    units = per_layer_units() if trace else dict(END_TO_END)
    metrics = {name: {"value": summary["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({**verdict, "metrics": metrics})


def import_check():
    """The package must come from this checkout's src/; nothing else will do."""
    if not (SRC / "syncmdp" / "__init__.py").is_file():
        print(f"error: no syncmdp package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import syncmdp
    if not Path(syncmdp.__file__).resolve().is_relative_to(SRC):
        print(f"error: syncmdp imported from {syncmdp.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--model-seed", type=int, default=None,
                        help="draw the models from this seed instead of the tier's own")
    args = parser.parse_args(argv)
    if not import_check():
        return 2
    summary, verdict = run(args.workload, args.seed, args.seconds, args.trace,
                           model_seed=args.model_seed)
    print(render(summary, args.trace))
    print(result_line(summary, verdict, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
