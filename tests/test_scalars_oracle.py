"""Q[q]/(Phi_p) arithmetic against sympy, an independent implementation.

Every product, inverse and power is recomputed in sympy as a polynomial
over QQ reduced modulo sympy's own cyclotomic polynomial, and compared
coordinate by coordinate with the power-basis coordinates of CycScalar.
"""

import random
from fractions import Fraction

import pytest
import sympy

from ncham.scalars import (CycScalar, _trusted, cyc_zero,
                           cyclotomic_polynomial, euler_phi, q_power)

X = sympy.Symbol("x")
ORDERS = (1, 2, 3, 4, 5, 6, 12)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 12)


def modulus(p):
    return sympy.Poly(sympy.cyclotomic_poly(p, X), X, domain=sympy.QQ)


def to_sympy(coords):
    """Ascending Fraction coordinates -> sympy polynomial over QQ."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coords)], X, domain=sympy.QQ)


def from_sympy(poly, p):
    """Reduced sympy polynomial -> ascending Fraction coordinates."""
    coords = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    coords += [Fraction(0)] * (euler_phi(p) - len(coords))
    return tuple(coords)


def reduced(poly, p):
    return from_sympy(poly.rem(modulus(p)), p)


def rand_coords(rng, p):
    return [Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            for _ in range(euler_phi(p))]


def test_modulus_matches_sympy():
    for p in ORDERS:
        assert to_sympy(cyclotomic_polynomial(p)) == modulus(p)


@pytest.mark.parametrize("p", ORDERS)
def test_ring_operations_against_sympy(p):
    rng = random.Random(1000 + p)
    for _ in range(40):
        ca, cb = rand_coords(rng, p), rand_coords(rng, p)
        a, b = CycScalar(p, ca), CycScalar(p, cb)
        sa, sb = to_sympy(ca), to_sympy(cb)
        assert (a + b).coeffs == reduced(sa + sb, p)
        assert (a - b).coeffs == reduced(sa - sb, p)
        assert (-a).coeffs == reduced(-sa, p)
        assert (a * b).coeffs == reduced(sa * sb, p)
        assert (a * a * b).coeffs == reduced(sa * sa * sb, p)


# the norm multiplies phi(p) - 1 conjugates, most at these orders; 32 is
# MAX_CYCLOTOMIC_ORDER
@pytest.mark.parametrize("p", ORDERS + (16, 30, 32))
def test_inverse_and_negative_powers_against_sympy(p):
    rng = random.Random(2000 + p)
    for _ in range(30):
        ca = rand_coords(rng, p)
        a = CycScalar(p, ca)
        if not a:
            continue
        inv = to_sympy(ca).invert(modulus(p))
        assert a.inverse().coeffs == reduced(inv, p)
        k = rng.randint(1, 4)
        assert (a ** -k).coeffs == reduced(inv ** k, p)
        assert (a ** k).coeffs == reduced(to_sympy(ca) ** k, p)


@pytest.mark.parametrize("p", ORDERS)
def test_q_power_against_sympy(p):
    x = sympy.Poly(X, X, domain=sympy.QQ)
    x_inv = x.invert(modulus(p))
    for k in range(-2 * p - 1, 2 * p + 2):
        expect = x ** k if k >= 0 else x_inv ** -k
        assert q_power(p, k).coeffs == reduced(expect, p)


def doubled(c):
    """c stored as twice its numerators over twice its denominator.  The
    layout is not canonical, so `__mul__` never takes it for +-1: a product
    with it runs the convolution, whose gcd restores the canonical form."""
    return _trusted(c.p, tuple([2 * n for n in c.nums]), 2 * c.den)


@pytest.mark.parametrize("p", ORDERS)
def test_products_with_a_unit_factor_against_sympy(p):
    """Each of +-1 (the unit branch when phi(p) > 1), +-q^k for k != 0,
    1/2, 2 and -3, on either side of random factors, of each other and of
    zero: the coordinates agree with sympy, and the fields and hash with
    the convolution."""
    rng = random.Random(7000 + p)
    rationals = (1, -1, Fraction(1, 2), 2, -3)
    factors = [CycScalar.from_rational(p, r) for r in rationals]
    factors += [s for k in range(1, p) for s in (q_power(p, k), -q_power(p, k))]
    others = [CycScalar(p, rand_coords(rng, p)) for _ in range(8)]
    others += factors + [cyc_zero(p)]
    for u in factors:
        su = to_sympy(u.coeffs)
        for a in others:
            expect = reduced(to_sympy(a.coeffs) * su, p)
            conv = doubled(a) * doubled(u)
            for prod in (a * u, u * a):
                assert prod.coeffs == expect
                assert (prod.nums, prod.den) == (conv.nums, conv.den)
                assert prod == conv and hash(prod) == hash(conv)
    for r in rationals + (Fraction(1), Fraction(-1), Fraction(-3)):
        sr = sympy.Rational(r.numerator, r.denominator)
        for a in others:
            expect = reduced(to_sympy(a.coeffs) * sr, p)
            assert (a * r).coeffs == expect and (r * a).coeffs == expect
            assert a * r == r * a == a * CycScalar.from_rational(p, r)
