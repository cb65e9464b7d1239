import json
import math
from fractions import Fraction

import pytest

from syncmdp import (Dist, analyze, attach_bounds, compute_bound, decide_bounded,
                     decide_limit_sure, decide_sure, format_rational,
                     min_initial_probability, min_positive_probability)
from syncmdp.bounds import KINDS

H = Fraction(1, 2)


def _alphas(m, d0):
    """The (alpha, alpha0) that `analyze` hands to attach_bounds."""
    return min_positive_probability(m), min_initial_probability(d0)


def test_eps_always_example():
    cert = compute_bound("eps_always", 4, 2, H, 1)
    assert cert.value == Fraction(1, 64)


def test_eps_eventually_example():
    cert = compute_bound("eps_eventually", 4, 2, H, 1)
    assert cert.value == Fraction(1, 2 ** 80)
    assert cert.log10 == pytest.approx(-80 * 0.30103, rel=1e-6)


def test_eps_strongly_and_counts():
    assert compute_bound("eps_strongly", 3, 1, H, 1).value == Fraction(1, 2 ** 6 * 9)
    assert compute_bound("N_weakly", 5, 1, H, 1).value == 32
    assert compute_bound("N_adversarial", 4, 2, H, 1).value == 20
    assert compute_bound("gap_strongly", 4, 2, H, 1).value == (4, 4)


def test_eps_weakly_formula():
    cert = compute_bound("eps_weakly", 2, 2, H, Fraction(1, 3))
    assert cert.value == Fraction(1, 3) * H ** 64 / Fraction(2 ** 5)


def test_eps_adversarial_formula():
    cert = compute_bound("eps_adversarial", 3, 2, H, 1)
    assert cert.value == Fraction(1, 4) ** 12


def test_reach_and_step_caps():
    assert compute_bound("lemma1_reach", 3, 1, H, H).value == H * H ** 3


def test_input_validation():
    with pytest.raises(ValueError):
        compute_bound("eps_always", 0, 1, H, 1)
    with pytest.raises(ValueError):
        compute_bound("eps_always", 1, 1, Fraction(2), 1)
    with pytest.raises(ValueError):
        compute_bound("eps_always", 1, 1, H, Fraction(0))
    with pytest.raises(ValueError):
        compute_bound("no_such_kind", 1, 1, H, 1)


def test_eps_weakly_refuses_single_state():
    with pytest.raises(ValueError, match="n >= 2"):
        compute_bound("eps_weakly", 1, 1, H, 1)


def test_formula_only_beyond_cap():
    exact = compute_bound("eps_weakly", 6, 2, H, 1)  # exponent 8 * 4^6 fits the cap
    assert exact.value is not None and not exact.formula_only
    # astronomically small exponents degrade to formula-only at the cap
    huge = compute_bound("eps_weakly", 12, 2, H, 1)
    assert huge.formula_only and huge.value is None
    assert huge.log10 < -10 ** 7
    assert huge.log10 == pytest.approx(-(14 * 4 ** 12 * 0.30103 + 4097 * math.log10(12)))
    obj = huge.to_obj()
    assert obj["exact"] is None and obj["kind"] == "eps_weakly"


def test_monotone_in_alpha_and_n():
    for kind in ("eps_eventually", "eps_always", "eps_strongly", "eps_adversarial"):
        values = [compute_bound(kind, 3, 2, a, 1).value
                  for a in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))]
        assert values == sorted(values)
        by_n = [compute_bound(kind, n, 2, H, 1).value for n in (2, 3, 4, 5)]
        assert by_n == sorted(by_n, reverse=True)


def test_weakly_below_eventually_below_alpha0():
    for n in range(2, 7):
        for alpha in (Fraction(1, 4), Fraction(1, 3), H, 1):
            for alpha0 in (Fraction(1, 3), H, 1):
                ew = compute_bound("eps_weakly", n, 2, alpha, alpha0).value
                ee = compute_bound("eps_eventually", n, 2, alpha, alpha0).value
                assert ew <= ee <= alpha0


def test_attach_twophase_eps_eventually(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    half = Fraction(1, 2)
    d0 = Dist(m.n, {m.state_index("q1"): half, m.state_index("q3"): half})
    v = decide_limit_sure(m, "eventually", t, d0.support())
    bounds = attach_bounds({("eventually", "limit-sure"): v}, m, d0,
                           *_alphas(m, d0))[("eventually", "limit-sure")]
    eps = next(b for b in bounds if b.kind == "eps_eventually")
    assert eps.value == Fraction(1, 2 ** 193)
    assert eps.inputs["alpha0"] == Fraction(1, 2)


def test_attach_loopback_bounded_weakly(loopback):
    m, t = loopback.mdp, loopback.targets["target"]
    v = decide_bounded(m, "weakly", t, loopback.initial.support())
    bounds = attach_bounds({("weakly", "bounded"): v}, m, loopback.initial,
                           *_alphas(m, loopback.initial))[("weakly", "bounded")]
    eps = next(b for b in bounds if b.kind == "eps_adversarial")
    assert eps.value == Fraction(1, 4) ** 12
    steps = next(b for b in bounds if b.kind == "N_adversarial")
    assert steps.value == 12


def test_attach_leaves_unmatched_verdicts_alone(twophase):
    m, t = twophase.mdp, twophase.targets["target"]
    d0 = Dist.dirac(m.n, m.state_index("q3"))
    v = decide_sure(m, "eventually", t, d0.support())
    assert v.answer
    cell = ("eventually", "sure")
    assert attach_bounds({cell: v}, m, d0, *_alphas(m, d0)) == {cell: []}


def test_refined_alpha0_via_failing_subsupport():
    # one winning state with tiny mass, one losing sink with large mass:
    # the exposed sub-support excludes the winning state, so alpha0 improves
    from conftest import build
    pm = build({
        "states": ["w", "x"], "actions": ["a"],
        "transitions": [
            {"from": "w", "action": "a", "to": "w", "prob": "1"},
            {"from": "x", "action": "a", "to": "x", "prob": "1"},
        ],
        "initial": {"w": "1/4", "x": "3/4"},
        "targets": {"goal": ["w"]},
    })
    m, t = pm.mdp, pm.targets["goal"]
    v = decide_limit_sure(m, "eventually", t, pm.initial.support())
    assert not v.answer
    assert set(v.certificate["failing_subsupport"].names(m.states)) == {"x"}
    bounds = attach_bounds({("eventually", "limit-sure"): v}, m, pm.initial,
                           *_alphas(m, pm.initial))[("eventually", "limit-sure")]
    eps = next(b for b in bounds if b.kind == "eps_eventually")
    # alpha0 refined to d0(x) = 3/4 instead of the full-support minimum 1/4
    assert eps.inputs["alpha0"] == Fraction(3, 4)
    assert eps.inputs["alpha0_support"] == [m.state_index("x")]
    assert eps.value == Fraction(3, 4)  # alpha = 1 so the power vanishes


def _eager(kind, n, a_count, alpha, alpha0):
    """The bound formulas evaluated directly."""
    n_pow = Fraction(n)
    return {
        "eps_eventually": alpha0 * alpha ** ((n + 1) * 2 ** n),
        "eps_weakly": alpha0 * alpha ** ((n + 2) * 4 ** n) / n_pow ** (2 ** n + 1),
        "N_weakly": 2 ** n,
        "eps_always": alpha0 * alpha ** n / n_pow,
        "eps_strongly": alpha0 * alpha ** (2 * n) / n_pow ** 2,
        "gap_strongly": (n, n),
        "eps_adversarial": alpha0 * (alpha / a_count) ** (n + n * n),
        "N_adversarial": n + n * n,
        "lemma1_reach": alpha0 * alpha ** n,
    }[kind]


def test_lazy_value_matches_eager_formula():
    for n in (2, 3, 5):
        for alpha in (Fraction(1, 6), Fraction(2, 3), Fraction(1)):
            for alpha0 in (Fraction(1, 5), Fraction(3, 4), Fraction(1)):
                for kind in KINDS:
                    cert = compute_bound(kind, n, 3, alpha, alpha0)
                    assert "value" not in vars(cert)  # nothing evaluated yet
                    assert cert.value == _eager(kind, n, 3, alpha, alpha0)
                    assert cert.value is cert.value  # cached on the object


def test_digit_limit_boundary():
    tenth = Fraction(1, 10)
    fits = compute_bound("lemma1_reach", 4299, 1, tenth, 1)   # 4,300 digits
    assert fits.to_obj()["exact"] == "1/1" + "0" * 4299
    over = compute_bound("lemma1_reach", 4300, 1, tenth, 1)   # 4,301 digits
    assert over.to_obj()["exact"] is None
    assert over.value == tenth ** 4300  # still exact for the checks
    with pytest.raises(ValueError):
        format_rational(over.value)
    assert over.to_obj()["log10"] == pytest.approx(-4300)


def test_long_bound_skips_evaluation_in_report():
    cert = compute_bound("eps_weakly", 8, 3, Fraction(1, 6), 1)
    assert not cert.formula_only
    obj = cert.to_obj()
    assert obj["exact"] is None and obj["log10"] < -10 ** 5
    assert "value" not in vars(cert)


def test_shared_certificates_within_one_analysis(funnel):
    an = analyze(funnel.mdp, funnel.initial, funnel.targets["target"])
    always = [an.bounds[("always", w)] for w in ("sure", "almost-sure", "limit-sure")]
    certs = [next(b for b in bounds if b.kind == "eps_always") for bounds in always]
    assert certs[0] is certs[1] is certs[2]
    by_obj = {}
    for bounds in an.bounds.values():
        for cert in bounds:
            key = json.dumps(cert.to_obj(), sort_keys=True)
            assert by_obj.setdefault(key, cert) is cert
