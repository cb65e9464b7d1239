#!/usr/bin/env python3
"""Sweep a seeded random corpus through the full analysis and oracle battery.

Prints a per-check tally, the guard trips by stage (a model whose analysis
trips a guard is counted there and skipped) and the first counterexample of
any failing check; exits nonzero only if a check fails somewhere in the corpus.
"""

import argparse
import sys
import time
from collections import Counter

from syncmdp import GuardExceeded, analyze, serialize_model
from syncmdp.checks import DEFAULT_ENUM_DEPTH, MAX_HORIZON, run_checks
from syncmdp.cli import int_in
from syncmdp.model import ParsedModel
from syncmdp.randgen import ACTION_NAMES, corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--count", type=int_in(0), default=500)
    parser.add_argument("--max-states", type=int_in(1), default=5)
    parser.add_argument("--max-actions", type=int_in(1, len(ACTION_NAMES)), default=2)
    parser.add_argument("--max-denominator", type=int_in(1), default=4)
    parser.add_argument("--horizon", type=int_in(0, MAX_HORIZON), default=50,
                        help=f"oracle horizon, at most {MAX_HORIZON} steps")
    parser.add_argument("--enum-depth", type=int_in(0), default=DEFAULT_ENUM_DEPTH)
    args = parser.parse_args()

    t0 = time.time()
    instances = corpus(args.seed, args.count, max_states=args.max_states,
                       max_actions=args.max_actions, max_denominator=args.max_denominator)
    tally = Counter()
    trips = Counter()
    first_failure = None
    for idx, inst in enumerate(instances):
        try:
            analysis = analyze(inst.mdp, inst.initial, inst.target)
        except GuardExceeded as exc:
            trips[exc.stage] += 1
            continue
        for result in run_checks(analysis, horizon=args.horizon,
                                 enum_depth=args.enum_depth):
            tally[(result.name, result.status)] += 1
            if result.status == "fail" and first_failure is None:
                first_failure = (idx, inst, result)

    elapsed = time.time() - t0
    print(f"{args.count} instances (seed {args.seed}, n <= {args.max_states}, "
          f"actions <= {args.max_actions}, denominators <= {args.max_denominator}) "
          f"in {elapsed:.1f} s")
    names = sorted({name for name, _ in tally})
    for name in names:
        parts = [f"{status}={tally[(name, status)]}"
                 for status in ("pass", "fail", "skip") if tally[(name, status)]]
        print(f"  {name:28} {' '.join(parts)}")
    if trips:
        print("  guard trips: " + " ".join(f"{stage}={count}"
                                           for stage, count in sorted(trips.items())))
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
