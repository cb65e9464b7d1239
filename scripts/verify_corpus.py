#!/usr/bin/env python3
"""Sweep a seeded random corpus through the full analysis and oracle battery.

Prints a per-check tally and the first counterexample of any failing check;
exits nonzero if any check fails anywhere in the corpus.
"""

import argparse
import sys
import time
from collections import Counter

from syncmdp import analyze, serialize_model
from syncmdp.checks import DEFAULT_ENUM_DEPTH, run_checks
from syncmdp.model import ParsedModel
from syncmdp.randgen import corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-states", type=int, default=5)
    parser.add_argument("--horizon", type=int, default=50)
    parser.add_argument("--enum-depth", type=int, default=DEFAULT_ENUM_DEPTH)
    args = parser.parse_args()

    t0 = time.time()
    instances = corpus(args.seed, args.count, max_states=args.max_states)
    tally = Counter()
    first_failure = None
    for idx, inst in enumerate(instances):
        analysis = analyze(inst.mdp, inst.initial, inst.target)
        for result in run_checks(analysis, horizon=args.horizon,
                                 enum_depth=args.enum_depth):
            tally[(result.name, result.status)] += 1
            if result.status == "fail" and first_failure is None:
                first_failure = (idx, inst, result)

    elapsed = time.time() - t0
    print(f"{args.count} instances (seed {args.seed}) in {elapsed:.1f} s")
    names = sorted({name for name, _ in tally})
    for name in names:
        parts = [f"{status}={tally[(name, status)]}"
                 for status in ("pass", "fail", "skip") if tally[(name, status)]]
        print(f"  {name:28} {' '.join(parts)}")
    if first_failure is not None:
        idx, inst, result = first_failure
        print(f"\nFIRST FAILURE at instance {idx}: {result.name} {result.info}")
        print("offending model document:")
        target_names = inst.target.names(inst.mdp.states)
        pm = ParsedModel(inst.mdp, inst.initial, {"target": inst.target})
        print(serialize_model(pm))
        print(f"target: {list(target_names)}")
        return 1
    print("all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
