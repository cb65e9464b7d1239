"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The random corpus is drawn once with a fixed seed; every criterion then runs
its named oracle checks over the analyzed instances at the stated horizons and
tolerances. Zero violations are allowed anywhere.
"""

import json
import random
import time

import pytest

from syncmdp import ParsedModel, analyze, decide_limit_sure, decide_sure, example_model
from syncmdp import serialize_model
from syncmdp.cli import main
from syncmdp.engine import check_consistency
from syncmdp.randgen import corpus, random_instance
from syncmdp.report import REPORT_VERSION, build_report, render_text

from conftest import run_named, support

CORPUS_SEED = 20260810
CORPUS_COUNT = 500
EXAMPLE_MODELS = ("drain", "funnel", "loopback", "twophase")

# second tier, past the toy corpus: n = 6, 7, 8 with up to 3 actions and
# denominators <= 8, from a seed fixed before this tier first ran
WIDE_TIER_SEED = 20261018
WIDE_TIER_SIZES = (6, 7, 8)
WIDE_TIER_PER_SIZE = 8

# scale tier: n = 32 and 48 with up to 3 actions and denominators <= 6, from a
# seed fixed before this tier first ran
SCALE_TIER_SEED = 20261125
SCALE_TIER_SIZES = (32, 48)
SCALE_TIER_PER_SIZE = 12


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="session")
def example_analyses():
    out = {}
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        out[name] = analyze(pm.mdp, pm.initial, pm.targets["target"])
    return out


@pytest.fixture(scope="session")
def corpus_analyses():
    instances = corpus(CORPUS_SEED, CORPUS_COUNT)
    return [analyze(inst.mdp, inst.initial, inst.target) for inst in instances]


@pytest.fixture(scope="session")
def all_analyses(example_analyses, corpus_analyses):
    return list(example_analyses.values()) + corpus_analyses


def _run(analyses, names, horizon=None, **kw):
    failures = []
    ran = 0
    for an in analyses:
        for result in run_named(an, horizon=horizon, names=names, **kw):
            if result.status == "fail":
                failures.append((an, result))
            elif result.status == "pass":
                ran += 1
    return ran, failures


def test_criterion_1_example_regression():
    start = time.perf_counter()
    f2 = example_model("funnel")
    m2, t2, s2 = f2.mdp, f2.targets["target"], f2.initial.support()
    assert decide_limit_sure(m2, "eventually", t2, s2).answer is True
    an2 = analyze(m2, f2.initial, t2)
    assert an2.answer("eventually", "almost-sure") is False
    assert an2.answer("eventually", "sure") is False
    for mode in ("always", "weakly", "strongly"):
        assert an2.answer(mode, "sure") is False
        assert an2.answer(mode, "almost-sure") is False

    f3 = example_model("loopback")
    an3 = analyze(f3.mdp, f3.initial, f3.targets["target"])
    assert an3.answer("weakly", "almost-sure") is True

    f4 = example_model("twophase")
    m4, t4 = f4.mdp, f4.targets["target"]
    both = support(m4, ["q1", "q3"])
    assert decide_limit_sure(m4, "eventually", t4, both).answer is False
    assert decide_sure(m4, "eventually", t4, support(m4, ["q1"])).answer is True
    assert decide_sure(m4, "eventually", t4, support(m4, ["q3"])).answer is True

    f1 = example_model("drain")
    an1 = analyze(f1.mdp, f1.initial, f1.targets["target"])
    for mode in ("always", "weakly", "strongly"):
        assert an1.answer(mode, "positive") is True
        assert an1.answer(mode, "bounded") is False
    assert an1.answer("eventually", "positive") is True
    assert an1.answer("eventually", "bounded") is True

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"example regression took {elapsed:.2f}s"
    report("criterion-1 example-regression", f"{elapsed * 1000:.0f} ms")


def test_criterion_2_bound_soundness(all_analyses):
    names = {"reach-value-cap", "step-decay-cap", "eventually-isolation",
             "always-prefix-dip", "strongly-prefix-dip"}
    start = time.perf_counter()
    ran, failures = _run(all_analyses, names, horizon=50)
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    assert elapsed < 60.0, f"bound soundness took {elapsed:.1f}s"
    report("criterion-2 bound-soundness",
           f"{len(all_analyses)} instances, {ran} applicable checks, {elapsed:.1f} s")


def test_criterion_3_near_sync_counting(corpus_analyses):
    applicable = [an for an in corpus_analyses
                  if 2 <= an.mdp.n <= 4 and not an.answer("weakly", "almost-sure")]
    ran, failures = _run(applicable, {"near-sync-count-cap"}, horizon=50,
                         enum_depth=6)
    assert not failures, failures[:3]
    assert ran > 0, "corpus produced no almost-sure-weakly-no instances"
    report("criterion-3 near-sync-counting", f"{ran} instances, zero violations")


def test_criterion_4_freezing_guarantee(all_analyses):
    applicable = [an for an in all_analyses if an.answer("strongly", "bounded")]
    ran, failures = _run(applicable, {"freezing-lower-bound"})
    assert not failures, failures[:3]
    assert ran > 0, "corpus produced no bounded-strongly-yes instances"
    report("criterion-4 freezing-guarantee", f"{ran} instances, exact floor held")


def test_criterion_5_winning_mode_identities(all_analyses):
    # analyze() already gates these; re-assert explicitly over every matrix
    for an in all_analyses:
        assert check_consistency(an.verdicts) == []
        for mode in ("weakly", "strongly"):
            assert an.answer(mode, "limit-sure") == an.answer(mode, "almost-sure")
        assert an.answer("always", "sure") == an.answer("always", "almost-sure") \
            == an.answer("always", "limit-sure")
        assert an.answer("eventually", "positive") == an.answer("eventually", "bounded")
        assert an.answer("always", "bounded") == (
            an.answer("always", "positive") and an.answer("strongly", "bounded"))
    report("criterion-5 winning-mode-identities",
           f"{len(all_analyses)} verdict matrices, all identities hold")


def test_criterion_6_region_oracle(all_analyses):
    ran, failures = _run(all_analyses, {"region-dp-agreement"})
    assert not failures, failures[:3]
    assert ran == len(all_analyses)
    report("criterion-6 region-dp-agreement",
           f"{ran} instances, region and losing layers certified exactly")


def test_criterion_7_lasso_integrity(all_analyses):
    ran, failures = _run(all_analyses, {"lasso-integrity"})
    assert not failures, failures[:3]
    assert ran == len(all_analyses)
    report("criterion-7 lasso-integrity",
           f"{ran} instances, Post steps, closure and matrix powers agree")


def test_corpus_reports_serialize(corpus_analyses):
    # every corpus report builds and serializes, including the models whose
    # eps_weakly is too long to print (exact: null with its log10)
    omitted = 0
    for an in corpus_analyses:
        doc = build_report(an, "target")
        text = json.dumps(doc)
        assert json.loads(text)["report-version"] == REPORT_VERSION
        render_text(doc)
        omitted += any(b["exact"] is None for row in doc["verdicts"].values()
                       for cell in row.values() for b in cell["bounds"])
    assert omitted > 0, "corpus has no bound beyond the digit limit"
    report("corpus-reports", f"{len(corpus_analyses)} reports, {omitted} with omitted digits")


def _wide_tier():
    rng = random.Random(WIDE_TIER_SEED)
    return [pytest.param(f"n{n}-{i}", random_instance(rng, n=n, max_actions=3,
                                                      max_denominator=8), id=f"n{n}-{i}")
            for n in WIDE_TIER_SIZES for i in range(WIDE_TIER_PER_SIZE)]


@pytest.mark.parametrize("name, inst", _wide_tier())
def test_wide_tier_verify_through_cli(name, inst, tmp_path, capsys):
    model = tmp_path / f"{name}.json"
    model.write_text(serialize_model(ParsedModel(inst.mdp, inst.initial, {"target": inst.target})))
    out = tmp_path / f"{name}.verify.json"
    code = main(["verify", "--model", str(model), "--target", "target", "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    failed = [item["name"] for item in json.loads(out.read_text())["oracle"]
              if item["status"] == "fail"]
    assert failed == [], f"{name}: {failed}"


def _scale_tier():
    rng = random.Random(SCALE_TIER_SEED)
    return [pytest.param(f"n{n}-{i}", random_instance(rng, n=n, max_actions=3,
                                                      max_denominator=6), id=f"n{n}-{i}")
            for n in SCALE_TIER_SIZES for i in range(SCALE_TIER_PER_SIZE)]


@pytest.mark.parametrize("name, inst", _scale_tier())
def test_scale_tier_analyze_through_cli(name, inst, tmp_path, capsys):
    # a finished analysis: the almost-sure weakly search walks only the subsets
    # of its fixpoint bound, which stays within the subset-search guard here
    model = tmp_path / f"{name}.json"
    model.write_text(serialize_model(ParsedModel(inst.mdp, inst.initial, {"target": inst.target})))
    code = main(["analyze", "--model", str(model), "--target", "target",
                 "--json", str(tmp_path / f"{name}.analyze.json")])
    assert (code, capsys.readouterr().err) == (0, "")
