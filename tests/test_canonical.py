"""Canonical storage: equal scalars have equal fields and hashes, Poly
arithmetic never stores a zero or non-Fraction coefficient, and no form or
derivation stores a zero coefficient or a zero part."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ncham.bigraded import BigradedForm, MixedDerivation
from ncham.cartan import iprod_or_zero
from ncham.matrixcalc import MatrixDerivation, TensorForm
from ncham.models import build_model
from ncham.polynomials import Poly
from ncham.scalars import CycScalar, cyc_one, cyc_zero, euler_phi, q_power


def rand_scalar(rng, p):
    return CycScalar(p, [Fraction(rng.randint(-6, 6), rng.randint(1, 8))
                         for _ in range(euler_phi(p))])


def assert_canonical(c):
    assert isinstance(c.den, int) and c.den > 0
    assert len(c.nums) == euler_phi(c.p)
    assert all(isinstance(n, int) for n in c.nums)
    # also pins zero to 0/1, as gcd(den, 0, ..., 0) == den
    assert gcd(c.den, *c.nums) == 1


def test_equal_values_are_equal_and_hash_equal():
    half = CycScalar(3, [Fraction(2, 4), Fraction(-3, 6)])
    other = CycScalar(3, [Fraction(1, 2), Fraction(-1, 2)])
    assert half == other and hash(half) == hash(other)
    assert half.nums == (1, -1) and half.den == 2

    rng = random.Random(99)
    for p in (1, 2, 3, 4, 5, 6, 12):
        for _ in range(30):
            a, b = rand_scalar(rng, p), rand_scalar(rng, p)
            for c in ((a + b) - b, b + a - b, -(-a)):
                assert c == a and hash(c) == hash(a)
                assert_canonical(c)
            if a:
                prod = a * a.inverse()
                assert prod == cyc_one(p) and hash(prod) == hash(cyc_one(p))
                assert_canonical(prod)
            assert_canonical(a * b)


def test_zero_is_zero_over_one():
    for p in (1, 2, 3, 12):
        a = CycScalar(p, [Fraction(k + 1, 3) for k in range(euler_phi(p))])
        for z in (a - a, cyc_zero(p), a * 0, CycScalar(p, [0] * euler_phi(p))):
            assert z.nums == (0,) * euler_phi(p) and z.den == 1
            assert not z and z == 0 and hash(z) == hash(cyc_zero(p))


def test_coeffs_are_fractions_and_mixed_comparisons_hold():
    c = CycScalar(3, [1, Fraction(2, 3)])
    assert c.coeffs == (Fraction(1), Fraction(2, 3))
    assert all(type(x) is Fraction for x in c.coeffs)
    assert all(type(x) is Fraction for x in q_power(5, 3).coeffs)

    r = CycScalar.from_rational(4, Fraction(-3, 2))
    assert r == Fraction(-3, 2) and Fraction(-3, 2) == r
    assert r != Fraction(3, 2) and r != 1
    assert cyc_one(3) == 1 and 1 == cyc_one(3) and cyc_one(3) != 2
    assert q_power(3, 1) != 1 and q_power(3, 3) == 1
    assert r * 2 == -3 and 2 * r == -3 and r + 1 == Fraction(-1, 2)


def test_poly_results_store_only_nonzero_fractions():
    x, y = Poly.x(), Poly.y()
    assert (x - x).coeffs == {}
    rng = random.Random(5)

    def rand_poly():
        return Poly({(rng.randint(0, 2), rng.randint(0, 2)):
                     Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(4)})

    for _ in range(60):
        f, g = rand_poly(), rand_poly()
        for h in (f + g, f - g, f * g, f * (g - g), f - f, -f, f.diff_x(),
                  f.diff_y(), (f * g).diff_x(), f + 1, 2 * f, f * 0,
                  f / 3, f ** 2):
            assert all(type(c) is Fraction and c for c in h.coeffs.values())


def assert_poly_canonical(h):
    assert type(h.den) is int and h.den > 0
    assert all(type(n) is int and n for n in h.nums.values())
    # also pins zero to {} over 1, as gcd(den) == den
    assert gcd(h.den, *h.nums.values()) == 1
    assert all(type(c) is Fraction and c for c in h.coeffs.values())


def rand_poly(rng):
    return Poly({(rng.randint(0, 2), rng.randint(0, 2)):
                 Fraction(rng.randint(-4, 4), rng.randint(1, 7))
                 for _ in range(rng.randint(0, 4))})


def test_poly_equal_values_are_equal_and_hash_equal():
    half = Poly({(1, 0): Fraction(2, 4), (0, 1): Fraction(-3, 6)})
    other = Poly({(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2), (2, 2): 0})
    assert half == other and hash(half) == hash(other)
    assert half.nums == {(1, 0): 1, (0, 1): -1} and half.den == 2

    rng = random.Random(77)
    for _ in range(80):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        routes = ((f + g) - g, g + f - g, -(-f), f * 6 / 6, (f / 7) * 7,
                  f - g + g, f + h - h, f * Poly.const(1), f ** 1)
        for c in routes:
            assert c == f and hash(c) == hash(f)
            assert_poly_canonical(c)
        lhs, rhs = (f + g) * h, f * h + g * h
        assert lhs == rhs and hash(lhs) == hash(rhs)
        for c in (f * g, f - g, f + g, 3 - f, f.diff_x(), f.diff_y(), f ** 3,
                  f / Fraction(-2, 3)):
            assert_poly_canonical(c)


def test_poly_zero_is_empty_over_one():
    f = Poly({(1, 2): Fraction(2, 3), (0, 0): Fraction(-1, 5)})
    zeros = (f - f, f + (-f), f * 0, 0 * f, f * Poly(), Poly(), Poly({(1, 1): 0}),
             Poly.const(Fraction(0, 3)), Poly.monomial(2, 1, 0), f / 5 - f / 5,
             2 - Poly.const(2), Poly.const(Fraction(1, 3)).diff_x(), Poly() ** 3,
             Poly() - Poly(), Poly() / 4)
    for z in zeros:
        assert z.nums == {} and z.den == 1 and z.coeffs == {}
        assert not z and z == 0 and z == Poly() and hash(z) == hash(Poly())


def test_poly_subtracting_zero_keeps_the_operand():
    f = Poly({(1, 0): Fraction(3, 2), (0, 3): -2})
    zero = Poly()
    assert f - zero == f and f - 0 == f and f + zero == f
    assert zero - f == -f and 0 - f == -f and 2 - zero == 2
    assert zero - zero == zero and zero + f == f


# -- forms and derivations: no stored zero ----------------------------------


def assert_no_stored_zero(x):
    """No coefficient of x is zero and, on BigradedForm, no part is zero."""
    if isinstance(x, BigradedForm):
        for t in x.parts.values():
            assert not t.is_zero(), x.parts
            assert_no_stored_zero(t)
        return
    coeffs = x.s.terms if isinstance(x, MatrixDerivation) else x.terms
    assert all(coeffs.values()), coeffs


def assert_zero(x):
    assert x.is_zero()
    assert_no_stored_zero(x)


FORM_MODELS = ("torus:p=2", "torus:p=3", "cuntz:n=2", "matrix:n=2",
               "polymat:D=3")


@pytest.mark.parametrize("desc", FORM_MODELS)
def test_cancelling_operations_store_no_zero(desc):
    model = build_model(desc)
    d = model.backend.d
    rng = random.Random(desc)
    for _ in range(4):
        x = model.random_form(rng, 2)
        th, ph = model.random_derivation(rng), model.random_derivation(rng)
        y = th.lie(x)                       # of the degree of x
        zero = x - x
        for z in (zero, x + (-x), -x + x, (x + y) - (y + x), x * zero,
                  zero * y, x * y - x * y, d(x - x), d(d(x)), d(y) - d(y),
                  iprod_or_zero(th, x) - iprod_or_zero(th, x),
                  iprod_or_zero(th, zero), th.lie(zero), th.lie(x) - y,
                  th.commutator(th).lie(x), (th - th).lie(y)):
            assert_zero(z)
        for r in (x, y, x + y, x - y, x * y, d(x), d(x + y),
                  iprod_or_zero(th, x), iprod_or_zero(ph, y), th.lie(x),
                  ph.lie(y), th.commutator(ph).lie(x)):
            assert_no_stored_zero(r)
        # equal values reached by different routes are ==
        assert (x + y) - y == x
        assert x + (y - x) == y
        assert x * (y + x) == x * y + x * x
        assert d(x + y) == d(x) + d(y)
        assert th.lie(x + y) == th.lie(x) + th.lie(y)
        assert iprod_or_zero(th, x + y) == \
            iprod_or_zero(th, x) + iprod_or_zero(th, y)
        assert th.commutator(ph).lie(x) == \
            th.lie(ph.lie(x)) - ph.lie(th.lie(x))
        assert d(iprod_or_zero(th, x)) + iprod_or_zero(th, d(x)) == th.lie(x)


def test_elements_store_no_zero():
    for desc in ("torus:p=2", "torus:p=3", "cuntz:n=2"):
        calc = build_model(desc).calculus
        ns = calc.namespace()
        a, b = (ns["u"], ns["v"]) if "torus" in desc else (ns["s1"], ns["s2*"])
        for z in (a.commutator(a), a * b - a * b, a + 1 - 1 - a, (a - a) * b,
                  a ** 0 - 1):
            assert_zero(z)
        x = a * b + 2 * b * a - 3
        for r in (x, x.commutator(a), x * x, x + 3, x - a * b):
            assert_no_stored_zero(r)
        assert x.commutator(a) == x * a - a * x
        assert (x - a * b) + a * b == x == x + (a - a)


@pytest.mark.parametrize("desc", ("matrix:n=2", "polymat:D=3"))
def test_matrix_units_store_no_zero(desc):
    ns = build_model(desc).namespace()
    e11, e12, e21, e22 = ns["E11"], ns["E12"], ns["E21"], ns["E22"]
    for z in (e12 * e21 - e11, e11 * e22, e12 * e12, e12 * e21 - e21 * e12
              - e11 + e22, ns["dE12"] * e11 - ns["dE12"] * e11,
              ns["I"] * ns["dE12"] - ns["dE12"] * ns["I"]):
        assert_zero(z)
    assert e12 * e21 + e21 * e12 == ns["I"] == e11 + e22
    assert (e12 * e21).d() == e11.d()
    assert_no_stored_zero(ns["dE12"] * ns["dE21"] + ns["dE11"] * ns["dE11"])


def test_matrix_derivations_store_no_zero():
    s = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    t = [[Fraction(2), Fraction(0)], [Fraction(3), Fraction(-1)]]
    ad_s, ad_t = MatrixDerivation.ad(s), MatrixDerivation.ad(t)
    for theta in (ad_s, ad_t, ad_s + ad_t, ad_s.commutator(ad_t)):
        assert_no_stored_zero(theta)
        assert not theta.is_zero()
    # the identity is central, so ad(I) cancels entry by entry
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for z in (ad_s - ad_s, ad_s + (-ad_s), ad_s.commutator(ad_s),
              MatrixDerivation.ad(ident), MatrixDerivation.ad(s) - ad_s,
              Fraction(0) * ad_t):
        assert_zero(z)
    assert ((ad_s + ad_t) - ad_t).s == ad_s.s
    e12 = TensorForm.unit(2, 0, 1)
    form = e12 * TensorForm.unit(2, 1, 0).d()
    for z in ((ad_s - ad_s).lie(form), ad_s.iprod(form) - ad_s.iprod(form),
              (ad_s - ad_s).apply(e12), ad_s.apply(e12) - ad_s.lie(e12)):
        assert_zero(z)


def test_bigraded_forms_store_no_zero():
    x = BigradedForm.scalar(Poly.x())
    dx = BigradedForm.classical(("x",))
    g = Poly.monomial(1, 1)
    theta = MixedDerivation(Poly.y(), Poly(), g)
    const = MixedDerivation(0, 0, 1)
    ident = BigradedForm.from_matrix([[1, 0], [0, 1]])
    for z in (dx * dx, x * dx - dx * x, dx.d(), (x * x).d() - 2 * x * x.d(),
              theta.iprod(dx - dx), theta.lie(x - x), const.lie(ident),
              const.lie(x), theta.commutator(theta).lie(x * dx),
              theta.iprod(x.d()) - theta.lie(x)):
        assert_zero(z)
    form = x * x.d() + ident.d() + (x * dx).d() + dx * theta.lie(x)
    for r in (form, theta.lie(form), theta.iprod(form), form.d(),
              theta.lie(form) - theta.lie(form.d())):
        assert_no_stored_zero(r)
    assert theta.lie(form) == theta.iprod(form).d() + theta.iprod(form.d())


def test_not_equal_is_the_negation_of_equal():
    """`!=` comes from `__eq__` on every value type, reflected and mixed
    operands included: int and Fraction on the scalar types, and a foreign
    operand, which is unequal to all of them."""
    torus = build_model("torus:p=3").calculus
    matrix = build_model("matrix:n=2").namespace()
    q = q_power(3, 1)
    x, y = Poly.x(), Poly.y()
    values = [
        (cyc_one(3), [cyc_one(3), q, q * q, 1, 0, Fraction(1, 2),
                      CycScalar(3, [Fraction(2, 2), 0])]),
        (CycScalar.from_rational(3, Fraction(1, 2)),
         [Fraction(1, 2), Fraction(2, 4), 1, q]),
        (Poly.const(2), [2, Fraction(2), Fraction(1, 2), Poly.const(2), x]),
        (x + y, [y + x, x, x - y, 0, Fraction(1, 3)]),
        (torus.gen("u") * torus.gen("v"),
         [torus.gen("v") * torus.gen("u") * q, torus.gen("u"), 0]),
        (torus.one(), [1, torus.one(), torus.one() * q]),
        (matrix["E12"], [matrix["E12"] + matrix["E21"] - matrix["E21"],
                         matrix["E21"], matrix["E12"].d()]),
        (BigradedForm.scalar(x), [BigradedForm.scalar(x),
                                  BigradedForm.classical(("x",), x),
                                  BigradedForm.zero()]),
    ]
    for a, others in values:
        for b in others + [a, "u"]:
            assert (a != b) is (not a == b), (a, b)
            assert (b != a) is (not b == a), (a, b)
        assert a != "u" and not a == "u"
