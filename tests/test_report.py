import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from syncmdp import analyze, decide_limit_sure, example_model, run_checks
from syncmdp.examples import EXAMPLE_MODELS
from syncmdp.randgen import corpus
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


def test_report_round_trips_examples():
    for name in ("drain", "funnel", "loopback", "twophase"):
        pm = example_model(name)
        analysis = analyze(pm.mdp, pm.initial, pm.targets["target"])
        report = build_report(analysis, "target", include_strategies=True)
        assert json.loads(json.dumps(report)) == report
        assert report["report-version"] == 2
        assert render_text(report)


KEYS = st.one_of(st.text(), st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(),
                 st.none())
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
    for tree in ([], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [(), [[], {}]], {1: {2: [()]}}):
        assert to_json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {"k": [Fraction(3)]},
                                   {(1, 2): "tuple key"}])
def test_writer_raises_type_error_like_stdlib(value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as ours:
        to_json(value)
    assert str(ours.value) == str(stdlib.value)


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
