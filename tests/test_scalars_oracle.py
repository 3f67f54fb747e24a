"""Q[q]/(Phi_p) arithmetic against sympy, an independent implementation.

Every product, inverse and power is recomputed in sympy as a polynomial
over QQ reduced modulo sympy's own cyclotomic polynomial, and compared
coordinate by coordinate with the power-basis coordinates of CycScalar.
"""

import random
from fractions import Fraction

import pytest
import sympy

from ncham.scalars import (CycScalar, cyclotomic_polynomial, euler_phi,
                           q_power)

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
