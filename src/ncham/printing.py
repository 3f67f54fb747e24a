"""Canonical, byte-stable text rendering.

Rationals print as a/b (omitting /1), cyclotomic scalars as polynomials in
q with ascending powers, elements as term lists sorted descending in the
owning presentation's term order.  The expression parser accepts
everything printed here, so print-parse round trips are exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import word_key
from .polynomials import Poly
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


def _signed_sum(render, items) -> str:
    """The sum of the terms render(*item) -> (negative, magnitude): '0'
    for no items, a '-' on the lead term only when it is negative, and
    ' + x' or ' - x' for every later term."""
    out = []
    for item in items:
        neg, body = render(*item)
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(body)
    return "".join(out) if out else "0"


def _spaced(*parts) -> str:
    return " ".join(s for s in parts if s)


def _q_term(k: int, r) -> tuple:
    """(r < 0, |r| q^k), with no coefficient on q^k when |r| = 1."""
    mag = abs(r)
    if k == 0:
        return r < 0, rational_str(mag)
    qpow = "q" if k == 1 else "q^%d" % k
    return r < 0, qpow if mag == 1 else rational_str(mag) + qpow


def scalar_str(c: CycScalar) -> str:
    return _signed_sum(_q_term, ((k, r) for k, r in enumerate(c.coeffs) if r))


def _term(c, word_part: str) -> tuple:
    """(negative, magnitude) of the term c word_part.  A rational r is the
    monomial r q^0, and a bare +-1 before a word prints as the word; any
    other sum of powers of q prints whole, in parentheses."""
    if isinstance(c, CycScalar):
        mono = c.monomial_form()
        if mono is None:
            return False, _spaced("(%s)" % scalar_str(c), word_part)
        k, r = mono
    else:
        k, r = 0, c
    neg, coeff = _q_term(k, r)
    if word_part and k == 0 and abs(r) == 1:
        return neg, word_part
    return neg, _spaced(coeff, word_part)


def element_str(x) -> str:
    word_str = x.system.word_str
    words = sorted(x.terms, key=word_key, reverse=True)
    return _signed_sum(_term, ((x.terms[w], word_str(w) if w else "")
                               for w in words))


def unit_name(n: int, flat: int) -> str:
    return "E%d%d" % (flat // n + 1, flat % n + 1)


def _legs(n: int, key) -> str:
    """The unit tensors of a key, joined by a tensor sign."""
    return "⊗".join(unit_name(n, f) for f in key)


def _monomial_str(mono) -> str:
    """x^i y^j for the exponent pair (i, j); '' for (0, 0)."""
    return " ".join(v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(("x", "y"), mono) if e)


def _tensor_terms(t, prefix=""):
    """The (coefficient, text) terms of a TensorForm in key order, each its
    prefix and legs; a Poly coefficient expands monomial by monomial."""
    for key in sorted(t.terms):
        c, word = t.terms[key], _spaced(prefix, _legs(t.n, key))
        if isinstance(c, Poly):
            for mono, r in sorted(c.items()):
                yield r, _spaced(_monomial_str(mono), word)
        else:
            yield c, word


def tensor_str(x) -> str:
    return _signed_sum(_term, _tensor_terms(x))


def poly_str(p) -> str:
    return _signed_sum(_term, ((c, _monomial_str(mono))
                               for mono, c in sorted(p.items())))


def bigraded_str(x) -> str:
    return _signed_sum(_term, (
        term for csym in sorted(x.parts, key=word_key) for term in
        _tensor_terms(x.parts[csym], " ".join("d" + v for v in csym))))
