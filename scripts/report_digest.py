#!/usr/bin/env python3
"""Digest the JSON reports of fixed seeded tiers, to show that a refactor
leaves every report byte-identical: run it on the change and on its parent
commit and compare the two output lines.

Prints one JSON line with two sha256 digests:

analyze
    the `analyze --strategies` reports (`build_report(...,
    include_strategies=True)`) of the corpora `randgen.corpus(20260810, N)` and
    `randgen.corpus(20260811, N)`, then of the large tier: for n = 8, 12, 16,
    the first min(N, 34) models drawn from `random.Random(7)` with 3 actions
    and denominators <= 6.
verify
    the `verify` reports (default horizon, budget and enumeration depth) of
    the first min(N, 150) models of corpus 20260810, then of the bundled
    example models.

N is `--count` (default 500). A model whose analysis raises contributes the
exception instead of a report.

With `--cli` it digests instead what `syncmdp.cli.main` returns, writes and
prints for the same models: the exit code, the `--json` file, stdout and
stderr of `analyze --strategies` (analyze tiers) and of `verify` (verify
tier). Each model is written to `model.json` in one temporary working
directory, so the path inside the reports is the same on every run. Of the
package this mode uses only `cli.main`, the model generator, `serialize_model`
and `model_to_obj`, so it can digest an older commit's CLI as well:
`PYTHONPATH=<old checkout>/src python3 scripts/report_digest.py --cli`.
It adds a third digest:

cli-input-errors
    the exit code and stderr of `analyze` on the documents of the models
    `randgen.corpus(20260812, N)`, each given one to three transition faults
    by `corrupt_document` (a non-object, a dropped key, a replaced value, a
    repeated transition) drawn from `random.Random(20260812)`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from syncmdp import ParsedModel, analyze, example_model, model_to_obj, serialize_model
from syncmdp.checks import run_checks
from syncmdp.cli import main as cli_main
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus, random_instance
from syncmdp.report import build_report

CORPUS_SEEDS = (20260810, 20260811)
LARGE_SEED, LARGE_SIZES, LARGE_PER_SIZE = 7, (8, 12, 16), 34
VERIFY_COUNT = 150
ERROR_SEED = 20260812
TRANSITION_KEYS = ("from", "action", "to", "prob")
# what a fault puts in place of a transition, or of one of its values: names and
# rationals of the other key, unknown and non-string names, malformed rationals
NON_OBJECTS = (None, 0, "s0", ["s0", "a", "s0", "1"])
WRONG_VALUES = (None, 0, 1.5, "", "nope", "s0", "a", ["s0"], {"s0": 1},
                "1", "1/2", "0", "1/0", "-1/2", " 1 / 2 ", "1/2/3", "2/4")


def large_tier(per_size):
    models = []
    for n in LARGE_SIZES:
        rng = random.Random(LARGE_SEED)
        models.extend(random_instance(rng, n=n, max_actions=3, max_denominator=6)
                      for _ in range(per_size))
    return models


def verify_tier(count):
    """The first `count` models of corpus 20260810, then the bundled examples."""
    models = [(i.mdp, i.initial, i.target) for i in corpus(CORPUS_SEEDS[0], count)]
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        models.append((pm.mdp, pm.initial, pm.targets["target"]))
    return models


def corrupt_document(rng, doc):
    """A copy of the model document `doc` whose transitions carry one to three
    faults: a transition replaced by a non-object, a key dropped, a value
    replaced, or a transition repeated later in the list."""
    transitions = [dict(tr) for tr in doc["transitions"]]
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(transitions))
        tr, kind = transitions[pos], rng.randrange(4)
        if kind == 0:
            transitions[pos] = rng.choice(NON_OBJECTS)
        elif kind == 3:
            transitions.insert(rng.randint(pos + 1, len(transitions)),
                               dict(tr) if isinstance(tr, dict) else tr)
        elif isinstance(tr, dict):
            key = rng.choice(TRANSITION_KEYS)
            if kind == 1:
                tr.pop(key, None)
            else:
                tr[key] = rng.choice(WRONG_VALUES)
    return dict(doc, transitions=transitions)


def corrupted_documents(count):
    rng = random.Random(ERROR_SEED)
    return [corrupt_document(rng, model_to_obj(ParsedModel(i.mdp, i.initial,
                                                           {"target": i.target})))
            for i in corpus(ERROR_SEED, count)]


def error_record(doc):
    """Exit code and stderr of `analyze` on the document, run in the current directory."""
    with open("model.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["analyze", "--model", "model.json", "--target", "target"])
    return json.dumps({"exit": code, "stderr": err.getvalue()}).encode("utf-8") + b"\n"


def report_line(mdp, initial, target, verify):
    try:
        analysis = analyze(mdp, initial, target)
        if verify:
            report = build_report(analysis, "target", oracle_results=run_checks(analysis))
        else:
            report = build_report(analysis, "target", include_strategies=True)
    except Exception as exc:  # the failure is part of what is compared
        report = {"error": f"{type(exc).__name__}: {exc}"}
    return json.dumps(report).encode("utf-8") + b"\n"


def cli_record(mdp, initial, target, verify):
    """Exit code, --json file, stdout and stderr of one CLI call on the model,
    run in the current directory."""
    with open("model.json", "w", encoding="utf-8") as handle:
        handle.write(serialize_model(ParsedModel(mdp, initial, {"target": target})))
    with contextlib.suppress(FileNotFoundError):
        os.remove("report.json")
    argv = ["verify" if verify else "analyze", "--model", "model.json", "--target", "target",
            "--json", "report.json"] + ([] if verify else ["--strategies"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    try:
        with open("report.json", "rb") as handle:
            written = handle.read()
    except FileNotFoundError:
        written = None
    record = {"exit": code, "json": None if written is None else written.decode("utf-8"),
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    return json.dumps(record).encode("utf-8") + b"\n"


def digest(models, verify, record=report_line):
    h = hashlib.sha256()
    for mdp, initial, target in models:
        h.update(record(mdp, initial, target, verify))
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=500,
                        help="models per corpus; caps the large and verify tiers too")
    parser.add_argument("--cli", action="store_true",
                        help="digest the exit code, --json file and output of cli.main")
    args = parser.parse_args()

    analyzed = [inst for seed in CORPUS_SEEDS for inst in corpus(seed, args.count)]
    analyzed += large_tier(min(args.count, LARGE_PER_SIZE))
    analyzed = [(i.mdp, i.initial, i.target) for i in analyzed]
    verified = verify_tier(min(args.count, VERIFY_COUNT))

    if args.cli:
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                line = {"cli-analyze": digest(analyzed, False, record=cli_record),
                        "cli-verify": digest(verified, True, record=cli_record),
                        "cli-input-errors": hashlib.sha256(b"".join(
                            map(error_record, corrupted_documents(args.count)))).hexdigest()}
            finally:
                os.chdir(home)
    else:
        line = {"analyze": digest(analyzed, verify=False),
                "verify": digest(verified, verify=True)}
    line["models"] = {"analyze": len(analyzed), "verify": len(verified)}
    print(json.dumps(line))
    return 0

if __name__ == "__main__":
    sys.exit(main())
