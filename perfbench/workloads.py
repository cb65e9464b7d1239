"""Workload definitions and the stored reference verdict matrices.

A workload is a CLI command (`analyze` or `verify`) swept over a fixed tier of
models made with `syncmdp.randgen`:

corpus-analyze
    `analyze --json` over the acceptance corpus `randgen.corpus(20260810, 500)`
    (n <= 5, <= 2 actions, denominators <= 4). Desk-scale traffic: per-model
    work is small, so the CLI front end, `model.parse_model` and
    `report.build_report` are a large share. `checks` and `oracle` are unused.
corpus-verify
    `verify --json` at the default horizon over the first 150 models of the
    acceptance corpus. `checks` plus `oracle` take most of the time, and the
    checks consume the exact bound values.
large-analyze
    `analyze --json` over n in (8, 12, 16), 3 actions, denominators <= 6,
    34 models per n from `random.Random(7)` per n. Exact bound evaluation
    dominates; `checks` and `oracle` are unused.

The run seed gives every model fresh state and action names, which leaves
the work unchanged. Fresh draws per seed would move the figures more than
most changes do: across six seeds the large tier's
median latency ranged from 22 to 123 ms (its models split into a cheap mode
and an exact-bound mode with the median between them), and a fresh acceptance
corpus moves the number of crashing models from 61 to 80 of 500. A claim is
confirmed on models not used while it was written with `--model-seed`, using
the workload's second seed.

The reference answer matrices live in `refs/<family>.json`, one string per
model seed: five hex digits per model, bit 5*i + j set when the answer to
(SYNC_MODES[i], WIN_MODES[j]) is "yes". `make_refs.py` writes them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

SYNC_MODES = ("always", "eventually", "weakly", "strongly")
WIN_MODES = ("sure", "almost-sure", "limit-sure", "positive", "bounded")

CORPUS_COUNT = 500          # the acceptance corpus: randgen.corpus(seed, 500)
VERIFY_COUNT = 150          # fixed prefix of the corpus swept by `verify`
LARGE_SIZES = (8, 12, 16)   # state counts of the large tier
LARGE_PER_SIZE = 34         # models per state count: 102 models in all


def large_models(randgen, seed, per_size):
    models = []
    for n in LARGE_SIZES:
        rng = random.Random(seed)
        models.extend(randgen.random_instance(rng, n=n, max_actions=3, max_denominator=6)
                      for _ in range(per_size))
    return models


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    family: str           # reference table in refs/
    count: int            # models swept
    model_seed: int       # the tier's models come from this seed
    second_seed: int      # model seed for confirming a claim on unseen models

    def models(self, randgen, seed, limit=None):
        """The workload's models for a model seed; `limit` keeps a prefix (tests)."""
        if self.family == "corpus":
            return randgen.corpus(seed, self._count(limit))
        return large_models(randgen, seed, self._count(limit) // len(LARGE_SIZES))

    def reference_index(self, limit=None):
        """Positions of the swept models in the family's reference list."""
        if self.family == "corpus":
            return list(range(self._count(limit)))
        per_size = self._count(limit) // len(LARGE_SIZES)
        return [k * LARGE_PER_SIZE + i for k in range(len(LARGE_SIZES))
                for i in range(per_size)]

    def _count(self, limit):
        if limit is None:
            return self.count
        if self.family == "large":
            limit = len(LARGE_SIZES) * -(-limit // len(LARGE_SIZES))
        return min(limit, self.count)


WORKLOADS = {w.name: w for w in (
    Workload("corpus-analyze", "analyze", "corpus", CORPUS_COUNT, 20260810, 20260811),
    Workload("corpus-verify", "verify", "corpus", VERIFY_COUNT, 20260810, 20260811),
    Workload("large-analyze", "analyze", "large", LARGE_PER_SIZE * len(LARGE_SIZES), 7, 11),
)}

FAMILY_SIZE = {"corpus": CORPUS_COUNT, "large": LARGE_PER_SIZE * len(LARGE_SIZES)}


def family_models(randgen, family, seed):
    if family == "corpus":
        return randgen.corpus(seed, CORPUS_COUNT)
    return large_models(randgen, seed, LARGE_PER_SIZE)


def encode_matrix(answer):
    """Five hex digits for a yes/no matrix given as answer(mode, win) -> bool."""
    bits = 0
    for i, mode in enumerate(SYNC_MODES):
        for j, win in enumerate(WIN_MODES):
            if answer(mode, win):
                bits |= 1 << (5 * i + j)
    return f"{bits:05x}"


def report_matrix(report):
    """Encoded matrix of a JSON report; KeyError/TypeError when malformed."""
    verdicts = report["verdicts"]
    return encode_matrix(lambda mode, win: verdicts[mode][win]["answer"] == "yes")


def load_references(family):
    """{seed: [hex matrix per model]} from the stored table."""
    path = REFS / f"{family}.json"
    if not path.exists():
        return {}
    table = json.loads(path.read_text(encoding="utf-8"))
    return {int(seed): [text[i:i + 5] for i in range(0, len(text), 5)]
            for seed, text in table["seeds"].items()}
