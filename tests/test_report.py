import json
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import SupportSet, Verdict, analyze, decide_limit_sure, example_model, run_checks
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus
from syncmdp import report as report_module
from syncmdp.report import build_report, render_text, to_json

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
    region = cell["certificate"]["product_region"]
    assert "c0@0" in region and all("@" in name for name in region)
    assert "x@0" in text
    assert render_text(report)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_sets_are_named_by_the_counter_layout(data):
    n, r = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    states = [f"s{q}" for q in range(n)]
    bits = data.draw(st.integers(0, 2 ** (n * r) - 1))
    own = data.draw(st.integers(0, 2 ** n - 1))
    cert = {"r": r, "product_region": SupportSet(n * r, bits), "set": SupportSet(n, own)}
    obj = report_module._verdict_obj(Verdict(True, certificate=cert), [],
                                     SimpleNamespace(states=states), False)["certificate"]
    # the product state <q, i> has index q*r + (r-1-i); at r = 1 the set has width n
    table = [f"{s}@{i}" for s in states for i in range(r - 1, -1, -1)] if r > 1 else states
    assert obj["product_region"] == [table[b] for b in range(n * r) if bits >> b & 1]
    assert obj["set"] == [states[q] for q in range(n) if own >> q & 1]
    assert obj["r"] == r


def test_report_round_trips_examples():
    for name in ("drain", "funnel", "loopback", "twophase"):
        pm = example_model(name)
        analysis = analyze(pm.mdp, pm.initial, pm.targets["target"])
        report = build_report(analysis, "target", include_strategies=True)
        assert json.loads(json.dumps(report)) == report
        assert report["report-version"] == 2
        assert render_text(report)


# Report-shaped trees: str keys, and leaves of the exact builtin types the CLI writes.
KEYS = st.text()
LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2 ** 80, 2 ** 80),  # beyond 64 bits
    st.floats(allow_nan=True, allow_infinity=True),  # negative, 1e+300, nan, inf
    st.sampled_from([-0.0, 1e-7, 1e16, -2.5e300, math.inf, -math.inf, math.nan]),
    st.text(),  # non-ASCII and control characters
    st.sampled_from(['"', "\\", '\\"\n\t\x00\x7f', "\u00e9\u2028\U0001f600", ""]),
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_stdlib_indent_2(tree):
    assert to_json(tree) == json.dumps(tree, indent=2)


def test_writer_matches_stdlib_on_empty_and_nested_containers():
    for tree in ([], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [(), [[], {}]], {"1": {"2": [()]}}):
        assert to_json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {"k": [Fraction(3)]}])
def test_writer_raises_type_error_like_stdlib(value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as ours:
        to_json(value)
    assert str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("value", [{1: "int key"}, {"k": {(1, 2): "tuple key"}}],
                         ids=["int-key", "tuple-key"])
def test_writer_rejects_a_key_that_is_not_a_str(value):
    # the CLI writes str keys only; the stdlib would coerce an int key to a string
    with pytest.raises(TypeError):
        to_json(value)


def test_writer_matches_stdlib_on_reports():
    reports = []
    for name in EXAMPLE_MODELS:
        pm = example_model(name)
        an = analyze(pm.mdp, pm.initial, pm.targets["target"])
        reports.append(build_report(an, "target", include_strategies=True))
        reports.append(build_report(an, "target", oracle_results=run_checks(an)))
    for inst in corpus(20260810, 50):
        reports.append(build_report(analyze(inst.mdp, inst.initial, inst.target), "target"))
    for report in reports:
        assert to_json(report) == json.dumps(report, indent=2)


def test_shared_certificate_is_formatted_once():
    pm = example_model("funnel")
    an = analyze(pm.mdp, pm.initial, pm.targets["target"])
    seen = {}
    shared = 0
    for cell, certs in an.bounds.items():
        for cert in certs:
            first = seen.setdefault(id(cert), (cell, cert.to_obj()))
            if first[0] != cell:
                shared += 1
                assert cert.to_obj() == first[1]
                assert cert.to_obj() is first[1]
    assert shared > 0
    report = build_report(an, "target")
    always = [report["verdicts"]["always"][win]["bounds"]
              for win in ("sure", "almost-sure", "limit-sure")]
    assert always[0] == always[1] == always[2] != []



def test_each_distinct_certificate_is_written_once_per_indent(monkeypatch):
    # the key "log10" appears only in bound certificates: the spy counts certificate writes
    quoted = Counter()
    quote = report_module._quote

    def spy(text):
        quoted[text] += 1
        return quote(text)

    monkeypatch.setattr(report_module, "_quote", spy)
    for inst in corpus(20260810, 40):
        an = analyze(inst.mdp, inst.initial, inst.target)
        distinct = {id(c) for certs in an.bounds.values() for c in certs}
        for strategies in (False, True):
            full = build_report(an, "target", include_strategies=strategies)
            cells = [cell for row in full["verdicts"].values() for cell in row.values()]
            writes = []
            for objs in ([full], [full], cells, cells):
                quoted.clear()
                for obj in objs:   # a report, then its cells as `--query` writes them
                    assert to_json(obj) == json.dumps(obj, indent=2)
                writes.append(quoted["log10"])
            # once at the report's indent, once at a cell's; the repeats reuse the
            # texts, and so does the second report (with strategy tables), whose
            # cells hold the same certificate objects
            once = 0 if strategies else len(distinct)
            assert writes == [once, 0, once, 0]
