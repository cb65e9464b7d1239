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
"""

import argparse
import hashlib
import json
import random
import sys

from syncmdp import analyze, example_model
from syncmdp.checks import run_checks
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus, random_instance
from syncmdp.report import build_report

CORPUS_SEEDS = (20260810, 20260811)
LARGE_SEED, LARGE_SIZES, LARGE_PER_SIZE = 7, (8, 12, 16), 34
VERIFY_COUNT = 150


def large_tier(per_size):
    models = []
    for n in LARGE_SIZES:
        rng = random.Random(LARGE_SEED)
        models.extend(random_instance(rng, n=n, max_actions=3, max_denominator=6)
                      for _ in range(per_size))
    return models


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


def digest(models, verify):
    h = hashlib.sha256()
    for mdp, initial, target in models:
        h.update(report_line(mdp, initial, target, verify))
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=500,
                        help="models per corpus; caps the large and verify tiers too")
    args = parser.parse_args()

    analyzed = [inst for seed in CORPUS_SEEDS for inst in corpus(seed, args.count)]
    analyzed += large_tier(min(args.count, LARGE_PER_SIZE))
    verified = [(i.mdp, i.initial, i.target)
                for i in corpus(CORPUS_SEEDS[0], min(args.count, VERIFY_COUNT))]
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        verified.append((pm.mdp, pm.initial, pm.targets["target"]))

    print(json.dumps({
        "analyze": digest(((i.mdp, i.initial, i.target) for i in analyzed), verify=False),
        "verify": digest(verified, verify=True),
        "models": {"analyze": len(analyzed), "verify": len(verified)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
