"""The closed-form isolation bounds and step constants as plain data: the
certificates each verdict cell of one analysis carries.

A `_Maker` validates, formats and takes the log10s of its constants once;
`attach_bounds` builds one per support alpha0 is taken over, and each
distinct certificate once.

A certificate holds its formula terms and a log10 companion for display. The
exact big rational is computed only when something reads `value` (the oracle
checks, or a report whose digits fit the printing limit), and only within a
cost cap; beyond the cap the certificate is formula-only (inputs and log10
preserved, exact value omitted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .model import DIGIT_CEILING, ONE, log10_of, min_initial_probability, rational_obj

# kind -> n -> (exponent, denom_pow) of alpha0 * base^exponent / n^denom_pow,
# whose base is alpha, or alpha / a_count for eps_adversarial
_FORMULAS = {
    "lemma1_reach": lambda n: (n, 0),
    "eps_eventually": lambda n: ((n + 1) * 2 ** n, 0),
    "eps_weakly": lambda n: ((n + 2) * 4 ** n, 2 ** n + 1),
    "eps_always": lambda n: (n, 1),
    "eps_strongly": lambda n: (2 * n, 2),
    "eps_adversarial": lambda n: (n + n * n, 0),
}
# the count kinds' exact values; gap_strongly: the first synchronized position
# within n steps, later positions at most n apart
_COUNTS = {"N_weakly": lambda n: 2 ** n, "N_adversarial": lambda n: n + n * n,
           "gap_strongly": lambda n: (n, n)}
KINDS = (*_FORMULAS, *_COUNTS)

EXPONENT_CAP_BITS = 1 << 24
_DIGIT_CEILING_BITS = DIGIT_CEILING.bit_length()   # 2^bits > the digit limit


@dataclass(frozen=True)
class BoundCert:
    """One bound as plain data: kind, inputs, log10 and formula terms.

    A formula bound is `alpha0 * base^exponent / n^denom_pow`, with `alpha0`
    and `n` read from the inputs; the count kinds (N_weakly, N_adversarial,
    gap_strongly) carry their small exact value in `count` instead; `shown`
    is the inputs as reports write them. A certificate is never mutated; its
    exact `value` is computed on first read and cached.
    """

    kind: str
    inputs: dict
    shown: dict = field(repr=False, compare=False)
    log10: float | None = None
    base: Fraction = ONE
    exponent: int = 0
    denom_pow: int = 0
    count: int | tuple | None = None

    @property
    def formula_only(self):
        """True when evaluating the power would exceed EXPONENT_CAP_BITS."""
        bits = self.base.numerator.bit_length() + self.base.denominator.bit_length()
        return self.count is None and self.exponent * max(bits, 1) > EXPONENT_CAP_BITS

    @cached_property
    def value(self):
        """The exact value, or None for a formula-only bound (no gcd of two big ints)."""
        if self.count is not None:
            return self.count
        if self.formula_only:
            return None
        value = self.inputs["alpha0"] * self.base ** self.exponent
        if self.denom_pow:
            value /= Fraction(self.inputs["n"]) ** self.denom_pow
        return value

    def _exact(self):
        if isinstance(self.count, tuple):
            return list(self.count)
        # a cheap test from the terms: the reduced denominator is at least
        # q^exponent / alpha0.numerator (base = p/q in lowest terms)
        if self.count is None and (self.formula_only or (
                self.exponent * (self.base.denominator.bit_length() - 1)
                - self.inputs["alpha0"].numerator.bit_length() >= _DIGIT_CEILING_BITS)):
            return None
        exact = rational_obj(self.value)
        return exact if isinstance(exact, str) else None

    def to_obj(self):
        """The certificate as reports write it, once per report (its bound table)."""
        return {"kind": self.kind, "exact": self._exact(), "log10": self.log10,
                "inputs": self.shown}


class _Maker:
    """Makes the bound of a kind for one (n, a_count, alpha, alpha0), alpha0
    taken over the sub-support `support` if given."""

    def __init__(self, n, a_count, alpha, alpha0, support=None):
        if n < 1 or a_count < 1:
            raise ValueError("state and action counts must be positive")
        alpha, alpha0 = Fraction(alpha), Fraction(alpha0)
        if not (0 < alpha.numerator <= alpha.denominator
                and 0 < alpha0.numerator <= alpha0.denominator):
            raise ValueError("alpha and alpha0 must lie in (0, 1]")
        self.n = n
        self.inputs = {"n": n, "a_count": a_count, "alpha": alpha, "alpha0": alpha0}
        if support is not None:
            self.inputs["alpha0_support"] = list(support)
        self.shown = {key: str(val) if isinstance(val, Fraction) else val
                      for key, val in self.inputs.items()}
        self.log_alpha0 = log10_of(alpha0)
        self.log_n = math.log10(n) if n > 1 else 0.0
        adversarial = Fraction(alpha, a_count)
        self.alpha_base = alpha, log10_of(alpha)   # (base, its log10)
        self.adversarial_base = adversarial, log10_of(adversarial)

    def __call__(self, kind):
        n = self.n
        if kind in _COUNTS:
            return BoundCert(kind, self.inputs, self.shown, count=_COUNTS[kind](n))
        if kind not in _FORMULAS:
            raise ValueError(f"unknown bound kind {kind!r}")
        if kind == "eps_weakly" and n < 2:
            raise ValueError("eps_weakly is defined for n >= 2 only")
        exponent, denom_pow = _FORMULAS[kind](n)
        base, log_base = (self.adversarial_base if kind == "eps_adversarial"
                          else self.alpha_base)
        log10 = self.log_alpha0 + exponent * log_base
        if denom_pow:
            log10 -= denom_pow * self.log_n
        return BoundCert(kind, self.inputs, self.shown, log10, base, exponent, denom_pow)


def compute_bound(kind, n, a_count, alpha, alpha0):
    """One bound formula as a certificate, from the model constants.

    n: state count; a_count: action count; alpha: smallest positive transition
    probability; alpha0: smallest positive initial probability.
    """
    return _Maker(n, a_count, alpha, alpha0)(kind)


def _carried(cell, verdict, n):
    """(kind, exposed sub-support or None) for each bound a cell's verdict carries."""
    (mode, win), yes = cell, verdict.answer
    if (mode, win, yes) == ("eventually", "limit-sure", False):
        exposed = (verdict.certificate or {}).get("failing_subsupport")
        return [("eps_eventually", exposed or None)]
    if yes:
        if win == "bounded":
            return [("eps_adversarial", None), ("N_adversarial", None)]
        return []
    if mode == "weakly" and win in ("almost-sure", "limit-sure"):
        return ([("eps_weakly", None)] if n >= 2 else []) + [("N_weakly", None)]
    if mode == "always" and win in ("sure", "almost-sure", "limit-sure"):
        return [("eps_always", None)]
    if mode == "strongly" and win == "sure":
        return [("gap_strongly", None)]
    if mode == "strongly" and win in ("almost-sure", "limit-sure"):
        return [("eps_strongly", None), ("gap_strongly", None)]
    return []


def attach_bounds(verdicts, m, d0, alpha, alpha0):
    """The bound certificates of one analysis: {(sync_mode, win_mode): [BoundCert]}
    with an entry per cell of `verdicts`, a {(sync_mode, win_mode): Verdict} dict
    for the support of d0. Bounds depend on d0, which the deciders never see;
    the caller computes alpha and alpha0 once per analysis.

    No-verdicts for limit-sure eventually carry eps_eventually (with the
    refined alpha0 when the decider exposed a failing sub-support); no-verdicts
    for almost-sure/limit-sure weakly carry eps_weakly and N_weakly; always and
    strongly no-verdicts carry eps_always / eps_strongly with the position-gap
    constants; yes-verdicts for bounded modes carry eps_adversarial and
    N_adversarial. Each distinct certificate, keyed by its kind and exposed
    mask, is built once, and every cell carrying it holds the same object.
    """
    n, a_count = m.n, m.action_count
    makers, certs, bounds = {}, {}, {}   # by exposed mask; by (kind, exposed mask); by cell
    for cell, verdict in verdicts.items():
        carried = bounds[cell] = []
        for kind, exposed in _carried(cell, verdict, n):
            mask = exposed and exposed.bits   # None: alpha0 over the whole support
            if mask not in makers:
                makers[mask] = (_Maker(n, a_count, alpha, alpha0) if exposed is None else _Maker(
                    n, a_count, alpha, min_initial_probability(d0, exposed), exposed))
            if (kind, mask) not in certs:
                certs[kind, mask] = makers[mask](kind)
            carried.append(certs[kind, mask])
    return bounds
