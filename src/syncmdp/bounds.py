"""The closed-form isolation bounds and step constants as plain data: the
certificates each verdict cell of one analysis carries.

A certificate holds its formula terms and a log10 companion for display. The
exact big rational is computed only when something reads `value` (the oracle
checks, or a report whose digits fit the printing limit), and only within a
cost cap; beyond the cap the certificate is formula-only (inputs and log10
preserved, exact value omitted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .model import ONE, format_rational, min_initial_probability

KINDS = ("eps_eventually", "eps_weakly", "N_weakly", "eps_always", "eps_strongly",
         "gap_strongly", "eps_adversarial", "N_adversarial", "lemma1_reach")

EXPONENT_CAP_BITS = 1 << 24

# Reports print a bound's digits only when its reduced numerator and
# denominator each have at most this many decimal digits (CPython's default
# int-to-str limit); longer bounds print `exact: null` with log10 and inputs.
MAX_STR_DIGITS = 4300
_DIGIT_CEILING = 10 ** MAX_STR_DIGITS
_DIGIT_CEILING_BITS = _DIGIT_CEILING.bit_length()   # 2^bits > 10^MAX_STR_DIGITS


@dataclass(frozen=True)
class BoundCert:
    """One bound as plain data: kind, inputs, log10 and formula terms.

    A formula bound is `alpha0 * base^exponent / n^denom_pow`, with `alpha0`
    and `n` read from the inputs; the count kinds (N_weakly, N_adversarial,
    gap_strongly) carry their small exact value in `count` instead. A
    certificate is never mutated; its exact `value` is computed on first read
    and cached.
    """

    kind: str
    inputs: dict
    log10: float | None
    base: Fraction = ONE
    exponent: int = 0
    denom_pow: int = 0
    count: int | tuple | None = None

    @property
    def formula_only(self):
        """True when evaluating the power would exceed EXPONENT_CAP_BITS."""
        return self.count is None and \
            self.exponent * max(_frac_bits(self.base), 1) > EXPONENT_CAP_BITS

    @cached_property
    def value(self):
        """The exact value, or None for a formula-only bound."""
        if self.count is not None:
            return self.count
        if self.formula_only:
            return None
        value = self.inputs["alpha0"] * self.base ** self.exponent
        if self.denom_pow:
            value /= Fraction(self.inputs["n"]) ** self.denom_pow
        return value

    def _exact_digits_exceed_limit(self):
        """Cheap test from the terms: the reduced denominator is at least
        q^exponent / alpha0.numerator (base = p/q in lowest terms), so its
        digits exceed the limit when that quotient is at least 2^bits."""
        q = self.base.denominator
        return (self.exponent * (q.bit_length() - 1)
                - self.inputs["alpha0"].numerator.bit_length()) >= _DIGIT_CEILING_BITS

    def _exact(self):
        if isinstance(self.count, tuple):
            return list(self.count)
        if self.count is None and (self.formula_only or self._exact_digits_exceed_limit()):
            return None
        value = Fraction(self.value)
        if value.numerator >= _DIGIT_CEILING or value.denominator >= _DIGIT_CEILING:
            return None
        return format_rational(value)

    def to_obj(self):
        """The report object, built once and shared by every cell carrying this
        certificate: read it, do not mutate it."""
        return self._report_obj

    @cached_property
    def _report_obj(self):
        inputs = {key: format_rational(val) if isinstance(val, Fraction) else val
                  for key, val in self.inputs.items()}
        return {"kind": self.kind, "exact": self._exact(), "log10": self.log10,
                "inputs": inputs}


def _log10(value):
    value = Fraction(value)
    if value <= 0:
        return None
    return math.log10(value.numerator) - math.log10(value.denominator)


def _frac_bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length()


def compute_bound(kind, n, a_count, alpha, alpha0):
    """One bound formula as a certificate, from the model constants.

    n: state count; a_count: action count; alpha: smallest positive transition
    probability; alpha0: smallest positive initial probability.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if n < 1 or a_count < 1:
        raise ValueError("state and action counts must be positive")
    alpha = Fraction(alpha)
    alpha0 = Fraction(alpha0)
    if not 0 < alpha <= 1 or not 0 < alpha0 <= 1:
        raise ValueError("alpha and alpha0 must lie in (0, 1]")
    inputs = {"n": n, "a_count": a_count, "alpha": alpha, "alpha0": alpha0}

    if kind == "N_weakly":
        return BoundCert(kind, inputs, None, count=2 ** n)
    if kind == "N_adversarial":
        return BoundCert(kind, inputs, None, count=n + n * n)
    if kind == "gap_strongly":
        # first position within n steps, later positions at most n apart
        return BoundCert(kind, inputs, None, count=(n, n))

    if kind == "lemma1_reach":
        exponent, base, denom_pow = n, alpha, 0
    elif kind == "eps_eventually":
        exponent, base, denom_pow = (n + 1) * 2 ** n, alpha, 0
    elif kind == "eps_weakly":
        if n < 2:
            raise ValueError("eps_weakly is defined for n >= 2 only")
        exponent, base, denom_pow = (n + 2) * 4 ** n, alpha, 2 ** n + 1
    elif kind == "eps_always":
        exponent, base, denom_pow = n, alpha, 1
    elif kind == "eps_strongly":
        exponent, base, denom_pow = 2 * n, alpha, 2
    elif kind == "eps_adversarial":
        exponent, base, denom_pow = n + n * n, Fraction(alpha, a_count), 0
    else:  # pragma: no cover - KINDS is closed
        raise AssertionError(kind)

    log10 = _log10(alpha0) + exponent * _log10(base)
    if denom_pow:
        log10 -= denom_pow * math.log10(n) if n > 1 else 0.0
    return BoundCert(kind, inputs, log10, base, exponent, denom_pow)


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
    N_adversarial. Each distinct certificate is built once and every cell
    carrying it holds the same object.
    """
    n, a_count = m.n, m.action_count
    certs = {}
    bounds = {}
    for cell, verdict in verdicts.items():
        carried = bounds[cell] = []
        for kind, exposed in _carried(cell, verdict, n):
            a0 = min_initial_probability(d0, exposed) if exposed else alpha0
            key = (kind, a0, exposed)
            if key not in certs:
                cert = compute_bound(kind, n, a_count, alpha, a0)
                if exposed:
                    cert = replace(cert, inputs={**cert.inputs,
                                                 "alpha0_support": list(exposed)})
                certs[key] = cert
            carried.append(certs[key])
    return bounds
