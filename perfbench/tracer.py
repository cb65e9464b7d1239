"""Outside-in tracer for the syncmdp benchmark.

It wraps the public functions of every `syncmdp` module, plus
`bounds.BoundCert.to_obj` and the entries of `checks.ALL_CHECKS`, without
editing the package. A wrapper is installed in every module namespace that
bound the original function, because several modules import functions by
name. Each call records a span (name, start, end, parent span, model id) in
memory; `aggregate()` turns the spans into per-layer numbers and `write()`
stores them once the run is over.

A span is named `<module>.<qualified name>`; the checks are named by their
`ALL_CHECKS` key (`checks.full-sync-count-cap`). Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "syncmdp"
CLASSIC_DECIDERS = ("classic.decide_sure", "classic.decide_almost_sure",
                    "classic.decide_limit_sure")


class Tracer:
    """Span store and work counters for one traced sweep at a time."""

    def __init__(self):
        self.model = -1
        self.names = []
        self._name_ids = {}
        self.reset()

    def reset(self):
        """Drop the spans and counters of the previous sweep."""
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_model = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self.stack = []
        self.counts = Counter()
        self.bound_args = set()

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_model.append(self.model)
        self.span_end.append(0.0)
        self.span_error.append(0)
        self.stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid, error=False):
        self.span_end[sid] = perf_counter()
        self.stack.pop()
        if error:
            self.span_error[sid] = 1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the package's public functions; returns a callable undoing it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        checks = modules[PACKAGE + ".checks"]
        check_names = {fn: key for key, fn in checks.ALL_CHECKS.items()}
        wrappers = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    label = check_names.get(obj, obj.__qualname__)
                    short = modname[len(PACKAGE) + 1:]
                    wrappers[obj] = self._wrap(f"{short}.{label}", obj)
        undo = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    undo.append((setattr, mod, attr, obj))
        for key, fn in list(checks.ALL_CHECKS.items()):
            checks.ALL_CHECKS[key] = wrappers.get(fn) or self._wrap(f"checks.{key}", fn)
            undo.append((checks.ALL_CHECKS.__setitem__, key, fn))
        cert = modules[PACKAGE + ".bounds"].BoundCert
        original = cert.to_obj
        cert.to_obj = self._wrap("bounds.BoundCert.to_obj", original)
        undo.append((setattr, cert, "to_obj", original))

        def uninstall():
            for action, *args in reversed(undo):
                action(*args)
        return uninstall

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, nid, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, error=True)
                raise
            self.close(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _wrap_generator(self, name, nid, fn):
        """Time a generator across its next() calls, one span per call."""
        tracer = self

        def traced(gen):
            while True:
                sid = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(sid)
                    return
                except BaseException:
                    tracer.close(sid, error=True)
                    raise
                tracer.close(sid)
                tracer.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs))
        return wrapper

    # -- reduction ----------------------------------------------------------

    def aggregate(self):
        """Per span name: [calls, total_s, self_s, errors]; plus top-level total."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for i in range(n):
            row = stats[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += self.span_error[i]
        return stats, top

    def pre_lasso_misses(self):
        """pre_lasso spans opened directly under a classic decider."""
        deciders = {self._name_ids[d] for d in CLASSIC_DECIDERS if d in self._name_ids}
        target = self._name_ids.get("regions.pre_lasso")
        count = 0
        for i in range(len(self.span_start)):
            p = self.span_parent[i]
            if self.span_name[i] == target and p >= 0 and self.span_name[p] in deciders:
                count += 1
        return count

    def write(self, path):
        """Write the spans as gzip'd TSV: id, parent, model, name, start, end, error."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tmodel\tname\tstart_s\tend_s\terror\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.span_model[i]}\t"
                          f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t{self.span_error[i]}\n")


# -- work counters recorded after a call returns ------------------------------

def _count_lasso(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += len(result.distinct())
    return hook


def _count_parse(tracer, args, kwargs, result):
    doc = args[0] if args else kwargs.get("doc")
    if isinstance(doc, (str, bytes)):
        tracer.counts["model.bytes_parsed"] += len(doc)


def _count_analysis(tracer, args, kwargs, result):
    tracer.counts["classic.cache_entries"] += len(result.cache)


def _count_bound(tracer, args, kwargs, result):
    tracer.bound_args.add((tracer.model, args, tuple(sorted(kwargs.items()))))
    value = result.value
    if hasattr(value, "denominator"):
        tracer.counts["bounds.value_bits"] += (value.numerator.bit_length()
                                               + value.denominator.bit_length())
    if result.formula_only:
        tracer.counts["bounds.formula_only"] += 1


def _count_checks(tracer, args, kwargs, result):
    for item in result:
        if item.status in ("fail", "skip"):
            tracer.counts["checks." + item.status] += 1


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["oracle.simulate.steps"] += result.horizon


_HOOKS = {
    "regions.pre_lasso": _count_lasso("regions.pre_lasso.supports"),
    "adversarial.support_lasso": _count_lasso("adversarial.support_lasso.len"),
    "model.parse_model": _count_parse,
    "engine.analyze": _count_analysis,
    "bounds.compute_bound": _count_bound,
    "checks.run_checks": _count_checks,
    "oracle.simulate": _count_steps,
}
