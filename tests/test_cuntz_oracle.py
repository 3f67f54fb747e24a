"""The Cuntz model against its shift representation, an independent oracle.

On basis vectors e_m (m >= 0), s_i e_m = e_(n m + i - 1), and
s_i* e_m = e_((m - i + 1)/n) when m = i - 1 (mod n), else 0.  These
integer maps satisfy s_i* s_j = delta_ij and sum_i s_i s_i* = 1 exactly
(Cuntz, Comm. Math. Phys. 57, 1977), and the algebra the rules present,
the Leavitt algebra L(1, n), is simple (Leavitt, Trans. AMS 103, 1962), so
the representation is faithful: a nonzero element acts as a nonzero map.
Normal forms, products, theta_h and the Poisson brackets of the s_k s_l*
are checked on it; the representation knows nothing of the rewrite rules.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ncham.models import theta_h

SEED = 20260


def _letter(name):
    """(i, starred) of the generator name s<i> or s<i>*."""
    return int(name[1:].rstrip("*")), name.endswith("*")


def _act_letter(n, letter, m):
    """The index of s_i e_m or s_i* e_m, or None for 0."""
    i, starred = letter
    if not starred:
        return n * m + i - 1
    if m % n != i - 1:
        return None
    return (m - i + 1) // n


def _act_word(n, letters, m):
    """The index of the word (rightmost letter first) applied to e_m."""
    for letter in reversed(letters):
        m = _act_letter(n, letter, m)
        if m is None:
            return None
    return m


def _act_raw(n, terms, m):
    """sum c w e_m over raw (letters, Fraction c) terms, as index -> coefficient."""
    out = {}
    for letters, c in terms:
        k = _act_word(n, letters, m)
        if k is not None:
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _raw_terms(calc, element):
    """An Element as raw (letters, Fraction) terms; the Cuntz calculus has
    p = 1, so each coefficient is rational."""
    letters = calc.system.table.letters
    return [(tuple(_letter(letters[li].base) for li in w), c.coeffs[0])
            for w, c in element.terms.items()]


def _random_word(rng, n, length):
    return [(rng.randint(1, n), rng.random() < 0.5) for _ in range(length)]


def _element(calc, letters, coeff=1):
    return calc.element([("s%d%s" % (i, "*" if st else ""), 1)
                         for i, st in letters], coeff)


@pytest.fixture(params=[2, 3], ids=["n=2", "n=3"])
def cuntz(request):
    return request.getfixturevalue("cuntz%d" % request.param), request.param


def test_normal_forms_and_products_act_as_their_words(cuntz):
    model, n = cuntz
    calc = model.calculus
    rng = random.Random(SEED + n)
    basis = range(n ** 4)
    for _ in range(150):
        a = _random_word(rng, n, rng.randint(1, 7))
        b = _random_word(rng, n, rng.randint(1, 7))
        ca, cb = Fraction(rng.choice([-2, -1, 1, 3])), Fraction(rng.randint(1, 3), 2)
        x, y = _element(calc, a, ca), _element(calc, b, cb)
        for m in basis:
            assert _act_raw(n, _raw_terms(calc, x), m) == _act_raw(n, [(a, ca)], m)
            want = _act_raw(n, [(tuple(a) + tuple(b), ca * cb)], m)
            assert _act_raw(n, _raw_terms(calc, x * y), m) == want
            assert _act_raw(n, _raw_terms(calc, x + y), m) \
                == _act_raw(n, [(a, ca), (b, cb)], m)


def test_every_nonzero_normal_form_acts_nonzero(cuntz):
    model, n = cuntz
    calc = model.calculus
    rng = random.Random(SEED + 10 * n)
    nonzero = 0
    for _ in range(120):
        x = calc.zero()
        for _ in range(rng.randint(1, 3)):
            word = _random_word(rng, n, rng.randint(1, 7))
            x = x + _element(calc, word, rng.choice([-1, 1, 2]))
        if x.is_zero():
            continue
        nonzero += 1
        terms = _raw_terms(calc, x)
        assert any(_act_raw(n, terms, m) for m in range(n ** 8)), x
    assert nonzero > 60


def _leibniz_oracle(h_terms, letters):
    """theta_h(w) as raw terms, by the Leibniz rule on the operator product
    with theta_h(s_i) = h s_i and theta_h(s_i*) = -s_i* h."""
    out = []
    for j, letter in enumerate(letters):
        pre, suf = tuple(letters[:j]), tuple(letters[j + 1:])
        for hw, hc in h_terms:
            if letter[1]:
                out.append((pre + (letter,) + hw + suf, -hc))
            else:
                out.append((pre + hw + (letter,) + suf, hc))
    return out


def test_theta_h_apply_is_the_operator_leibniz_rule(cuntz):
    model, n = cuntz
    calc = model.calculus
    rng = random.Random(SEED + 100 * n)
    checked = 0
    while checked < 40:
        h_raw = [(tuple(_random_word(rng, n, rng.randint(1, 3))),
                  Fraction(rng.choice([-1, 1, 2])))
                 for _ in range(rng.randint(1, 2))]
        h = calc.zero()
        for hw, hc in h_raw:
            h = h + _element(calc, hw, hc)
        if h.is_zero():
            continue
        theta = theta_h(calc, h, n)
        a = _random_word(rng, n, rng.randint(1, 5))
        got = _raw_terms(calc, theta.apply(_element(calc, a)))
        want = _leibniz_oracle(h_raw, a)
        for m in range(n ** 4):
            assert _act_raw(n, got, m) == _act_raw(n, want, m), (h, a, m)
        checked += 1


def test_brackets_of_the_s_k_s_l_star_are_operator_commutators(cuntz):
    """Criterion 5's family: {s_k s_l*, s_r s_m*} acts as the commutator of
    the two operators."""
    model, n = cuntz
    calc = model.calculus
    pairs = [((k, False), (l, True)) for k, l in product(range(1, n + 1), repeat=2)]
    for x_letters, y_letters in product(pairs, repeat=2):
        x, y = _element(calc, x_letters), _element(calc, y_letters)
        got = _raw_terms(calc, model.solver.poisson(x, y))
        want = [(x_letters + y_letters, 1), (y_letters + x_letters, -1)]
        for m in range(n ** 4):
            assert _act_raw(n, got, m) == _act_raw(n, want, m), (x, y, m)
