import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import (SupportSet, analyze, decide_limit_sure, example_model, load_model,
                     run_checks)
from syncmdp.bounds import BoundCert
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus
from syncmdp import report as report_module
from syncmdp.report import build_report, render_text

from conftest import build

# needs two predecessor phases: the waiting state can only inject mass into
# the two-cycle, so winning hinges on aligning the counter
PHASED = {
    "states": ["x", "c0", "c1"],
    "actions": ["a", "b"],
    "transitions": [
        {"from": "x", "action": "a", "to": "x", "prob": "1"},
        {"from": "x", "action": "b", "to": "c0", "prob": "1/2"},
        {"from": "x", "action": "b", "to": "x", "prob": "1/2"},
        {"from": "c0", "action": "a", "to": "c1", "prob": "1"},
        {"from": "c0", "action": "b", "to": "c1", "prob": "1"},
        {"from": "c1", "action": "a", "to": "c0", "prob": "1"},
        {"from": "c1", "action": "b", "to": "c0", "prob": "1"},
    ],
    "initial": {"x": "1"},
    "targets": {"goal": ["c0"]},
}


def test_limit_sure_via_product_with_period_two():
    pm = build(PHASED)
    m, t, s0 = pm.mdp, pm.targets["goal"], pm.initial.support()
    v = decide_limit_sure(m, "eventually", t, s0)
    assert v.answer
    assert v.certificate["via"] == "product"
    assert v.certificate["r"] == 2


def test_report_serializes_product_certificates():
    pm = build(PHASED)
    analysis = analyze(pm.mdp, pm.initial, pm.targets["goal"])
    report = build_report(analysis, "goal")
    text = json.dumps(report)  # must be JSON-clean end to end
    cell = report["verdicts"]["eventually"]["limit-sure"]
    assert cell["answer"] == "yes"
    # one counter mask per state (x, c0, c1), bit i for counter i: x wins at
    # either counter, c0 at counter 0 and c1, a step before it, at counter 1
    assert cell["certificate"]["product_region"] == ["3", "1", "2"]
    assert '"product_region": [' in text
    assert render_text(report)


def counter_layout(masks, r):
    """The product set a certificate's counter masks stand for: <q, i> at bit
    q*r + (r-1-i), bit i of the mask of state q."""
    bits = 0
    for q, mask in enumerate(masks):
        assert mask == mask.lower() and int(mask, 16) >> r == 0
        bits |= sum(1 << q * r + r - 1 - i for i in range(r) if int(mask, 16) >> i & 1)
    return bits


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_sets_are_counter_masks(data):
    n, r = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    states = [f"s{q}" for q in range(n)]
    bits = data.draw(st.integers(0, 2 ** (n * r) - 1))
    own = data.draw(st.integers(0, 2 ** n - 1))
    cert = {"r": r, "product_region": SupportSet(n * r, bits), "set": SupportSet(n, own)}
    obj = report_module._certificate_obj(cert, states)
    assert len(obj["product_region"]) == n
    assert counter_layout(obj["product_region"], r) == bits
    assert obj["set"] == [states[q] for q in range(n) if own >> q & 1]
    assert obj["r"] == r


def state_names(mask, states):
    return [states[q] for q in range(len(states)) if int(mask, 16) >> q & 1]


def round_trip_analyses():
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        yield analyze(pm.mdp, pm.initial, pm.targets["target"])
    pm = load_model(Path(__file__).parent / "golden" / "prime-cycles.model.json")
    yield analyze(pm.mdp, pm.initial, pm.targets["target"])
    for inst in corpus(20260810, 150):
        yield analyze(inst.mdp, inst.initial, inst.target)


def test_report_writes_each_fact_of_the_analysis_once():
    products = 0
    for an in round_trip_analyses():
        report = build_report(an, "target")
        states = report["model"]["states"]
        table = report["bounds"]
        assert len({json.dumps(b, sort_keys=True) for b in table}) == len(table)
        for (mode, win), certs in an.bounds.items():
            cell = report["verdicts"][mode][win]
            assert [table[i] for i in cell["bounds"]] == [b.to_obj() for b in certs]
            cert = an.verdicts[(mode, win)].certificate
            if cert and "product_region" in cert:
                products += 1
                region = cert["product_region"]
                masks = cell["certificate"]["product_region"]
                assert len(masks) == an.mdp.n
                assert counter_layout(masks, region.width // an.mdp.n) == region.bits
        for section, key, lasso in (("support-lasso", "prefix", an.lasso),
                                    ("pre-lasso", "supports", an.target_lasso)):
            masks = report["model"][section][key]
            assert [state_names(mask, states) for mask in masks] == [
                list(s.names(states)) for s in lasso.distinct()]
            assert all(mask == format(int(mask, 16), "x") for mask in masks)
    assert products > 0


def test_report_round_trips_examples():
    for name in ("drain", "funnel", "loopback", "twophase"):
        pm = example_model(name)
        analysis = analyze(pm.mdp, pm.initial, pm.targets["target"])
        report = build_report(analysis, "target", include_strategies=True)
        assert json.loads(json.dumps(report)) == report
        assert report["report-version"] == 3
        assert render_text(report)


def assert_plain_json(obj):
    """Assert obj is dicts with str keys, lists and exact builtin leaves: what json.dumps writes back unchanged."""
    if type(obj) is dict:
        assert all(type(k) is str for k in obj)
        for v in obj.values():
            assert_plain_json(v)
    elif type(obj) is list:
        for v in obj:
            assert_plain_json(v)
    else:
        assert type(obj) in (str, int, float, bool, type(None)), type(obj)


@pytest.mark.parametrize("value", [{1: "int key"}, {"k": {(1, 2): "tuple key"}}],
                         ids=["int-key", "tuple-key"])
def test_writer_rejects_a_key_that_is_not_a_str(value):
    # the writer is json.dumps: it coerces an int key to a string and fails on a tuple key,
    # so the report check must refuse both before anything is written
    try:
        assert json.loads(json.dumps(value)) != value
    except TypeError:
        pass
    with pytest.raises(AssertionError):
        assert_plain_json(value)


def test_reports_hold_only_str_keys_and_exact_builtin_leaves():
    # json.dumps would coerce an int key to a string, and write a tuple as a list
    reports = []
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        an = analyze(pm.mdp, pm.initial, pm.targets["target"])
        reports.append(build_report(an, "target", include_strategies=True))
        reports.append(build_report(an, "target", oracle_results=run_checks(an)))
    for inst in corpus(20260810, 50):
        reports.append(build_report(analyze(inst.mdp, inst.initial, inst.target), "target"))
    for report in reports:
        assert_plain_json(report)
        assert json.loads(json.dumps(report)) == report


def test_shared_certificate_is_formatted_once(monkeypatch):
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    cells = Counter(id(cert) for certs in an.bounds.values() for cert in certs)
    assert max(cells.values()) > 1   # a certificate several cells carry
    calls = Counter()
    to_obj = BoundCert.to_obj

    def spy(cert):
        calls[id(cert)] += 1
        return to_obj(cert)

    monkeypatch.setattr(BoundCert, "to_obj", spy)
    report = build_report(an, "target")
    assert calls == dict.fromkeys(cells, 1) and len(report["bounds"]) == len(cells)
    always = [report["verdicts"]["always"][win]["bounds"]
              for win in ("sure", "almost-sure", "limit-sure")]
    assert always[0] == always[1] == always[2] != []


def test_each_distinct_certificate_is_written_once_per_report():
    # the key "log10" appears only in bound certificates
    for inst in corpus(20260810, 40):
        an = analyze(inst.mdp, inst.initial, inst.target)
        distinct = {id(c) for certs in an.bounds.values() for c in certs}
        for strategies in (False, True):
            full = build_report(an, "target", include_strategies=strategies)
            assert json.dumps(full).count('"log10"') == len(distinct)
