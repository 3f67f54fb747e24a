"""Cyclotomic field arithmetic against an independent extended-Euclid oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ncham.models import torus_calculus
from ncham.polynomials import Poly
from ncham.scalars import (CycScalar, cyclotomic_polynomial, cyc_one,
                           cyc_zero, euler_phi, q_power)


# -- independent oracle: polynomial arithmetic over Q, from scratch ---------

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def poly_mod(a, m):
    a = list(a)
    while len(a) >= len(m):
        c = a[-1] / m[-1]
        shift = len(a) - len(m)
        for j, y in enumerate(m):
            a[shift + j] -= c * y
        while a and not a[-1]:
            a.pop()
    return a


def oracle_inverse(coeffs, p):
    """Inverse in Q[q]/(Phi_p) by brute extended Euclid, independent code."""
    phi = list(cyclotomic_polynomial(p))
    r0, r1 = phi, [c for c in coeffs]
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        # one division step
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        while len(rem) >= len(r1):
            c = rem[-1] / r1[-1]
            q[len(rem) - len(r1)] = c
            for j, y in enumerate(r1):
                rem[len(rem) - len(r1) + j] -= c * y
            while rem and not rem[-1]:
                rem.pop()
        s_new = [x for x in s0] + [Fraction(0)] * max(
            0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s_new[i + j] -= qi * sj
        while s_new and not s_new[-1]:
            s_new.pop()
        r0, r1, s0, s1 = r1, rem, s1, s_new
    lead = r1[0]
    inv = poly_mod([c / lead for c in s1], phi)
    inv += [Fraction(0)] * (euler_phi(p) - len(inv))
    return tuple(inv)


def rand_scalar(rng, p):
    phi = euler_phi(p)
    return CycScalar(p, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(phi)])


def test_cyclotomic_polynomials():
    as_ints = lambda p: [int(c) for c in cyclotomic_polynomial(p)]
    assert all(type(c) is int
               for p in range(1, 33) for c in cyclotomic_polynomial(p))
    assert as_ints(1) == [-1, 1]
    assert as_ints(2) == [1, 1]
    assert as_ints(3) == [1, 1, 1]
    assert as_ints(4) == [1, 0, 1]
    assert as_ints(6) == [1, -1, 1]
    assert as_ints(12) == [1, 0, -1, 0, 1]


def test_inverse_example_p3():
    """(1+q) * (-q) = 1 in Q[q]/(q^2+q+1)."""
    q = q_power(3, 1)
    one = cyc_one(3)
    assert (one + q) * (-q) == 1
    # the oracle agrees that -q is the inverse of 1+q
    assert oracle_inverse((Fraction(1), Fraction(1)), 3) == (-q).coeffs


def test_q_powers():
    assert q_power(3, 3) == 1
    assert q_power(2, 5).coeffs == (Fraction(-1),)   # q = -1 concretely
    assert q_power(3, 2).coeffs == (Fraction(-1), Fraction(-1))
    assert q_power(1, 7) == 1
    for p in (1, 2, 3, 4, 5, 6):
        for k in range(-2 * p, 2 * p + 1):
            assert q_power(p, k) * q_power(p, -k) == 1
            assert q_power(p, k) == q_power(p, 1) ** (k % p)


def test_trivial_inverse():
    for p in (1, 2, 3, 5):
        assert cyc_one(p).inverse() == 1


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    for p in (1, 2, 3, 4, 5, 6):
        for _ in range(60):
            a, b, c = (rand_scalar(rng, p) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_division_against_oracle():
    rng = random.Random(7)
    for p in (2, 3, 4, 5):
        for _ in range(40):
            a = rand_scalar(rng, p)
            if not a:
                continue
            assert a.inverse().coeffs == oracle_inverse(a.coeffs, p)


def test_rational_embedding_commutes():
    rng = random.Random(1)
    for p in (1, 3, 4):
        emb = lambda r: CycScalar.from_rational(p, r)
        for _ in range(40):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert emb(r) + emb(s) == emb(r + s)
            assert emb(r) * emb(s) == emb(r * s)
            if s:
                assert emb(r) / emb(s) == emb(r / s)


def test_errors():
    with pytest.raises(ZeroDivisionError):
        cyc_one(3) / CycScalar.from_rational(3, 0)
    for p in (1, 2, 3, 12, 32):
        assert cyc_zero(p).monomial_form() == (0, Fraction(0))
        with pytest.raises(ZeroDivisionError,
                           match=r"^division by zero in Q\(q\)$"):
            cyc_zero(p).inverse()
    with pytest.raises(ValueError):
        cyc_one(3) + cyc_one(2)
    with pytest.raises(ValueError):
        q_power(0, 1)


def test_reflected_division():
    """r / x is x's inverse times r, and 1 / x is the inverse."""
    rng = random.Random(11)
    for p in (1, 2, 3, 5, 12, 32):
        for _ in range(5):
            x = rand_scalar(rng, p)
            if not x:
                continue
            inv = x.inverse()
            assert 1 / x == inv
            assert Fraction(3, 2) / x == inv * Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            1 / cyc_zero(p)


def test_a_rational_value_hashes_as_the_int_or_fraction_it_equals():
    values = [0, 1, -3, 12, Fraction(1, 2), Fraction(-7, 3)]
    for v in values:
        for p in (1, 2, 3, 5, 12):
            c = CycScalar(p, [v] + [0] * (euler_phi(p) - 1))
            assert c == v and hash(c) == hash(v) and {v: p}[c] == p
        assert Poly.const(v) == v and hash(Poly.const(v)) == hash(v)
        assert {v: "c"}.get(Poly.const(v)) == "c"
    # every other value keeps its hash of the fields
    c = CycScalar(3, [Fraction(1, 2), 1])
    assert hash(c) == hash((3, c.nums, c.den))
    x = Poly.x() / 2
    assert hash(x) == hash((frozenset(x.nums.items()), x.den))
    # an Element compares equal to a scalar, so it has no hash
    with pytest.raises(TypeError):
        hash(torus_calculus(2).one())


def test_str_forms():
    assert str(cyc_one(3) - 2 * q_power(3, 1)) == "1 - 2q"
    assert str(q_power(5, 2)) == "q^2"
    assert str(CycScalar.from_rational(2, Fraction(2, 3))) == "2/3"


# -- the monomial inverse -----------------------------------------------------

def galois_inverse(x):
    """The general inverse, for every nonzero x: the product b of the Galois
    conjugates q -> q^k (k a unit mod p other than 1) over the rational
    norm x * b, written out with the public arithmetic."""
    p = x.p
    conj = cyc_one(p)
    for k in range(2, p):
        if gcd(k, p) == 1:
            img = cyc_zero(p)
            for m, a in enumerate(x.coeffs):
                if a:
                    img = img + a * q_power(p, k * m)
            conj = conj * img
    norm = x * conj
    assert norm.monomial_form()[0] == 0    # the norm is rational
    return conj * CycScalar.from_rational(p, 1 / norm.coeffs[0])


def test_monomial_inverse_against_the_galois_product():
    """r q^m for every p <= 32 and m < phi(p), r a signed rational that is
    not a unit, inverts to the general inverse's value."""
    rng = random.Random(2021)
    for p in range(1, 33):
        phi = euler_phi(p)
        for m in range(phi):
            for _ in range(2):
                r = Fraction(rng.choice((-1, 1)) * rng.randint(2, 40),
                             rng.randint(1, 40))
                if abs(r) == 1:
                    r *= 3
                x = CycScalar(p, [r if j == m else 0 for j in range(phi)])
                assert x.monomial_form() == (m, r)
                inv = x.inverse()
                assert inv == galois_inverse(x), (p, m, r)
                assert x * inv == 1
        for k in range(-p, 2 * p):
            assert q_power(p, k).inverse() == q_power(p, -k)
        with pytest.raises(ZeroDivisionError,
                           match=r"^division by zero in Q\(q\)$"):
            cyc_zero(p).inverse()
