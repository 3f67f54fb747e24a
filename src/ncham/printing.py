"""Canonical, byte-stable text rendering.

Rationals print as a/b (omitting /1), cyclotomic scalars as polynomials in
q with ascending powers, elements as term lists sorted descending in the
owning presentation's term order.  The expression parser accepts
everything printed here, so print-parse round trips are exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .scalars import CycScalar


def rational_str(r: Fraction) -> str:
    """a/b, or a when b = 1.  Python refuses to print an int of more than
    sys.get_int_max_str_digits() digits (4,300 by default); that refusal is
    a ValueError naming the coefficient's bit length and the bound."""
    try:
        return str(r.numerator) if r.denominator == 1 else "%d/%d" % (r.numerator, r.denominator)
    except ValueError:
        bits = max(r.numerator.bit_length(), r.denominator.bit_length())
        raise ValueError("a coefficient of %d bits exceeds the printing bound "
                         "of %d decimal digits"
                         % (bits, sys.get_int_max_str_digits())) from None


def _q_term(k: int, r: Fraction, lead: bool) -> str:
    sign = "-" if r < 0 else "+"
    mag = abs(r)
    if k == 0:
        body = rational_str(mag)
    else:
        qpow = "q" if k == 1 else "q^%d" % k
        body = qpow if mag == 1 else rational_str(mag) + qpow
    if lead:
        return body if r >= 0 else "-" + body
    return "%s %s" % (sign, body)


def scalar_str(c: CycScalar) -> str:
    parts = [(k, r) for k, r in enumerate(c.coeffs) if r]
    if not parts:
        return "0"
    out = _q_term(parts[0][0], parts[0][1], lead=True)
    for k, r in parts[1:]:
        out += " " + _q_term(k, r, lead=False)
    return out


def _coeff_prefix(c, word_part: str):
    """(sign, body) where body is '' for a bare +-1 coefficient.  A
    rational r is the monomial r q^0; any other sum of powers of q prints
    whole, in parentheses."""
    if isinstance(c, CycScalar):
        mono = c.monomial_form()
        if mono is None:
            return "+", "(%s)" % scalar_str(c)
        k, r = mono
    else:
        k, r = 0, Fraction(c)
    sign = "-" if r < 0 else "+"
    if word_part and k == 0 and abs(r) == 1:
        return sign, ""
    return sign, _q_term(k, abs(r), lead=True)


def term_str(c, word_part: str, lead: bool) -> str:
    sign, body = _coeff_prefix(c, word_part)
    pieces = " ".join(x for x in (body, word_part) if x)
    if not pieces:
        pieces = "1"
    if lead:
        return pieces if sign == "+" else "-" + pieces
    return "%s %s" % (sign, pieces)


def element_str(x) -> str:
    if not x.terms:
        return "0"
    system = x.system
    words = sorted(x.terms, key=lambda w: (len(w), w), reverse=True)
    out = term_str(x.terms[words[0]], system.word_str(words[0]) if words[0] else "",
                   lead=True)
    for w in words[1:]:
        out += " " + term_str(x.terms[w], system.word_str(w) if w else "", lead=False)
    return out


def unit_name(n: int, flat: int) -> str:
    return "E%d%d" % (flat // n + 1, flat % n + 1)


def tensor_str(x) -> str:
    """Sums of unit tensors with legs separated by a tensor sign."""
    if not x.terms:
        return "0"
    keys = sorted(x.terms)
    parts = []
    for i, key in enumerate(keys):
        legs = "⊗".join(unit_name(x.n, f) for f in key)
        parts.append(term_str(x.terms[key], legs, lead=(i == 0)))
    return " ".join(parts)


def _monomial_str(mono) -> str:
    """x^i y^j for the exponent pair (i, j); '' for (0, 0)."""
    return " ".join(v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(("x", "y"), mono) if e)


def poly_str(p) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for i, (mono, c) in enumerate(sorted(p.coeffs.items())):
        parts.append(term_str(c, _monomial_str(mono), lead=(i == 0)))
    return " ".join(parts)


def bigraded_str(x) -> str:
    chunks = []
    first = True
    for csym in sorted(x.parts, key=lambda c: (len(c), c)):
        t = x.parts[csym]
        csym_txt = " ".join("d" + v for v in csym)
        for key in sorted(t.terms):
            legs = "⊗".join(unit_name(t.n, f) for f in key)
            word = " ".join(s for s in (csym_txt, legs) if s)
            for mono, c in sorted(t.terms[key].coeffs.items()):
                full = " ".join(s for s in (_monomial_str(mono), word) if s)
                chunks.append(term_str(c, full, lead=first))
                first = False
    return " ".join(chunks) if chunks else "0"
