#!/usr/bin/env python3
"""Generate the reference verdict matrices that the benchmark checks against.

For each seed, every model of the family is analyzed with
`syncmdp.engine.analyze` (the library call, so models whose CLI report
crashes still get a reference) and its 4x5 answer matrix is stored in
`refs/<family>.json`. Corpus references are cross-validated with
`checks.run_checks` on the first `--check-count` models of each seed, and the
four bundled models are checked against `tests/golden_matrices.json`. A
golden mismatch stops the script; failed checks are stored under
`check_fails` and make the script exit 1 at the end.

    python3 perfbench/make_refs.py --family corpus --seeds 20260810,20260811 --check-count 500
    python3 perfbench/make_refs.py --family large --seeds 7,11
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import (FAMILY_SIZE, REFS, ROOT, SRC, encode_matrix, family_models)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def check_golden(syncmdp):
    golden = json.loads((ROOT / "tests" / "golden_matrices.json").read_text("utf-8"))
    for name in syncmdp.examples.EXAMPLE_MODELS:
        pm = syncmdp.example_model(name)
        analysis = syncmdp.analyze(pm.mdp, pm.initial, pm.targets["target"])
        got = encode_matrix(analysis.answer)
        want = encode_matrix(lambda mode, win: golden[name][mode][win] == "yes")
        if got != want:
            raise SystemExit(f"golden mismatch on {name}: {got} != {want}")
    print(f"golden: {len(syncmdp.examples.EXAMPLE_MODELS)} bundled models match")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILY_SIZE), required=True)
    parser.add_argument("--seeds", required=True, help="model seeds, e.g. 7,11 or 0-9")
    parser.add_argument("--check-count", type=int, default=0,
                        help="models per seed cross-validated with run_checks")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import syncmdp
    from syncmdp import randgen
    from syncmdp.checks import run_checks

    check_golden(syncmdp)
    path = REFS / f"{args.family}.json"
    table = (json.loads(path.read_text("utf-8")) if path.exists()
             else {"family": args.family, "models": FAMILY_SIZE[args.family],
                   "checked": {}, "check_fails": {}, "seeds": {}})
    failures = 0
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        codes = []
        checked = 0
        for idx, inst in enumerate(family_models(randgen, args.family, seed)):
            analysis = syncmdp.analyze(inst.mdp, inst.initial, inst.target)
            codes.append(encode_matrix(analysis.answer))
            if idx < args.check_count:
                fails = [r.name for r in run_checks(analysis) if r.status == "fail"]
                if fails:
                    table["check_fails"][f"{seed}:{idx}"] = fails
                    print(f"seed {seed} model {idx}: checks failed: {fails}")
                    failures += 1
                checked += 1
        table["seeds"][str(seed)] = "".join(codes)
        table["checked"][str(seed)] = max(checked, table["checked"].get(str(seed), 0))
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"{args.family} seed {seed}: {len(codes)} models, {checked} cross-checked, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
