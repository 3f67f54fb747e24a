"""Q[x, y] arithmetic against sympy, an independent implementation.

Every sum, difference, product, quotient by a rational, partial derivative
and power is recomputed by sympy's Poly over QQ[x, y] and compared with
the coefficients of Poly.  Operands are seeded and random, with mixed
denominators, empty operands and results that cancel to zero.
"""

import random
from fractions import Fraction

import pytest
import sympy

from ncham.polynomials import Poly

X, Y = sympy.symbols("x y")
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7)


def to_sympy(p):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator)
         for m, c in p.coeffs.items()}, X, Y, domain=sympy.QQ)


def from_sympy(poly):
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms() if c}


def rand_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def rand_coeffs(rng, degree=3):
    return {(rng.randint(0, degree), rng.randint(0, degree)): rand_rational(rng)
            for _ in range(rng.randint(0, 5))}


def operands(rng):
    """(a, b): b is random, empty, -a, or -a with a few terms changed."""
    ca = rand_coeffs(rng)
    kind = rng.randrange(4)
    if kind == 0:
        cb = rand_coeffs(rng)
    elif kind == 1:
        cb = {}
    else:
        cb = {m: -c for m, c in ca.items()}
        if kind == 3:
            cb.update(rand_coeffs(rng, 1))
    a, b = Poly(ca), Poly(cb)
    return (a, b) if rng.random() < 0.5 else (b, a)


def same(p, poly):
    return p.coeffs == from_sympy(poly)


@pytest.mark.parametrize("seed", range(4))
def test_ring_operations_against_sympy(seed):
    rng = random.Random(3000 + seed)
    for _ in range(60):
        a, b = operands(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(b - a, sb - sa)
        assert same(-a, -sa)
        assert same(a * b, sa * sb)
        assert same(a * b * a, sa * sb * sa)
        assert ((a + b) == (b + a)) and ((a == b) == (sa == sb))


@pytest.mark.parametrize("seed", range(4))
def test_mixed_scalar_operations_against_sympy(seed):
    rng = random.Random(4000 + seed)
    for _ in range(60):
        a, _ = operands(rng)
        sa = to_sympy(a)
        r = rng.choice([0, 2, -1, rand_rational(rng)])
        sr = sympy.Rational(r.numerator, r.denominator)
        assert same(r - a, sr - sa)
        assert same(2 - a, 2 - sa)
        assert same(a - r, sa - sr)
        assert same(a + r, sa + sr) and same(r + a, sa + sr)
        assert same(a * r, sa * sr) and same(r * a, sa * sr)
        if r:
            assert same(a / r, sa * (1 / sr))
        assert (Poly.const(r) == r) and (r == Poly.const(r))
        assert (a == r) == (sa == sympy.Poly(sr, X, Y, domain=sympy.QQ))


@pytest.mark.parametrize("seed", range(4))
def test_derivatives_and_powers_against_sympy(seed):
    rng = random.Random(5000 + seed)
    for _ in range(40):
        a, _ = operands(rng)
        sa = to_sympy(a)
        assert same(a.diff_x(), sa.diff(X))
        assert same(a.diff_y(), sa.diff(Y))
        k = rng.randint(0, 4)
        assert same(a ** k, sa ** k)


def test_power_matches_repeated_products():
    rng = random.Random(6000)
    for a in (Poly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}),
              Poly({(0, 0): -1, (2, 1): Fraction(3, 7)}), Poly.x(), Poly(),
              Poly(rand_coeffs(rng, 2))):
        expect = Poly.const(1)
        for k in range(10):
            assert a ** k == expect
            expect = expect * a


def convolution(a, b):
    """a * b by the integer convolution of the numerators, the product
    Poly computes for two non-constant factors."""
    out = {}
    for (i1, j1), x in a.nums.items():
        for (i2, j2), y in b.nums.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + x * y
    return Poly({m: Fraction(n, a.den * b.den) for m, n in out.items()})


@pytest.mark.parametrize("seed", range(4))
def test_products_with_a_constant_factor_against_sympy(seed):
    """A constant Poly, int or Fraction, +-1 among them, on either side of
    random, constant and zero polynomials: the coefficients agree with
    sympy, and the fields and hash with the convolution."""
    rng = random.Random(8000 + seed)
    rationals = (1, -1, Fraction(1, 2), 2, -3, 0, Fraction(1), Fraction(-1),
                 rand_rational(rng))
    others = [Poly(rand_coeffs(rng)) for _ in range(8)]
    others += [Poly.const(r) for r in rationals] + [Poly.x(), -Poly.y()]
    for r in rationals:
        c = Poly.const(r)
        sr = sympy.Rational(r.numerator, r.denominator)
        for a in others:
            sa = to_sympy(a)
            conv = convolution(a, c)
            for prod in (a * c, c * a, a * r, r * a):
                assert same(prod, sa * sr)
                assert (prod.nums, prod.den) == (conv.nums, conv.den)
                assert prod == conv and hash(prod) == hash(conv)
