"""Exact coefficient arithmetic: rationals and the cyclotomic field Q(q).

The deformation parameter q is a primitive p-th root of unity, realized as
the quotient field Q[q]/(Phi_p(q)) where Phi_p is the p-th cyclotomic
polynomial.  An element is stored in the power basis 1, q, ..., q^(phi(p)-1)
as integer numerators over one positive common denominator, the layout of
FLINT's fmpq_poly and nf_elem: `nums` is a tuple of phi(p) ints and `den`
a positive int.  The form is canonical: gcd(den, *nums) == 1, and zero is
(0, ..., 0)/1, so equal elements have equal fields and equal hashes.

All arithmetic is in integers.  Phi_p is monic with integer
coefficients, built by exact integer long division, so a product is an
integer convolution reduced by an integer table of the powers of q, then
one gcd; at phi(p) = 1 it is a single integer multiply.  The inverse of a
monomial r q^m is (1/r) q^(p-m), one row of the power table; that covers
every pivot of omega~ on the torus, which is +-q^m.  The inverse of any
other nonzero a is prod_k sigma_k(a) / N(a) over the Galois automorphisms
sigma_k: q -> q^k, k a unit mod p other than 1, where the norm
N(a) = a * prod_k sigma_k(a) is rational (Washington, Introduction to
Cyclotomic Fields, ch. 2).  q**p == 1 holds on the nose and all arithmetic
is exact.  p = 1 gives plain rationals (q = 1), p = 2 gives q = -1
concretely.  Fractions appear only at the edges: the constructor and
`from_rational` accept them, and `.coeffs` (the coordinates as a tuple of
Fractions) and `monomial_form` return them.

`power(x, k, one)` is the one square-and-multiply of the package: the
powers of `CycScalar`, `Poly` and `Element` and the expression parser's
powers all call it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction


@lru_cache(maxsize=None)
def cyclotomic_polynomial(p: int) -> tuple:
    """Integer coefficients of Phi_p, ascending: x^p - 1 divided by Phi_d
    for each proper divisor d of p.  Every Phi_d is monic, so each long
    division is exact in the integers."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    num = [-1] + [0] * (p - 1) + [1]
    for d in range(1, p):
        if p % d == 0:
            div = cyclotomic_polynomial(d)
            quo = [0] * (len(num) - len(div) + 1)
            for i in range(len(quo) - 1, -1, -1):
                c = quo[i] = num[i + len(div) - 1]
                if c:
                    for j, b in enumerate(div):
                        num[i + j] -= c * b
            num = quo
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(p: int) -> tuple:
    """q^k in the power basis for k = 0 .. max(2*(phi-1), p-1).

    Row k lists the pairs (m, t), t a nonzero int, with q^k = sum t q^m.
    That covers every degree of an unreduced product and every q^k with
    0 <= k < p.
    """
    phi_p = cyclotomic_polynomial(p)
    phi = len(phi_p) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(max(2 * phi - 1, p)):
        rows.append(tuple((m, t) for m, t in enumerate(cur) if t))
        # times q, then q^phi = -(Phi_p - q^phi) since Phi_p is monic
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(phi):
                cur[j] -= top * phi_p[j]
    return tuple(rows)


def euler_phi(p: int) -> int:
    return len(cyclotomic_polynomial(p)) - 1


class CycScalar:
    """An element of Q[q]/(Phi_p(q)), exact, immutable and canonical.

    `CycScalar(p, coeffs)` takes the phi(p) power-basis coordinates as ints
    or Fractions.
    """

    __slots__ = ("p", "nums", "den")

    def __init__(self, p, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(p):
            raise ValueError("coefficient vector has wrong length for p=%d" % p)
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1
        den = lcm(*(c.denominator for c in coeffs))
        self.p = p
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coordinates, a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @classmethod
    def from_rational(cls, p, value):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _trusted(p, (value.numerator,) + (0,) * (euler_phi(p) - 1),
                        value.denominator)

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.p != self.p:
                raise ValueError("cyclotomic orders differ: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.from_rational(self.p, other)
        return None

    def __add__(self, other, sign=1):
        # sign=-1 gives self - other (__sub__)
        if other.__class__ is not CycScalar or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _canonical(self.p, [x + sign * y for x, y in zip(a, b)], d1)
        s1 = sign * d1
        return _canonical(self.p, [x * d2 + y * s1 for x, y in zip(a, b)],
                          d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.p, tuple([-a for a in self.nums]), self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not CycScalar or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        den = self.den * other.den
        phi = len(a)
        if phi == 1:
            n = a[0] * b[0]
            g = gcd(n, den)
            if g != 1:
                return _trusted(self.p, (n // g,), den // g)
            return _trusted(self.p, (n,), den)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        table = _power_table(self.p)
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for m, t in table[k]:
                    conv[m] += c * t
        del conv[phi:]
        return _canonical(self.p, conv, den)

    __rmul__ = __mul__

    def inverse(self):
        """(den/a) q^(p-m) for a monomial (a/den) q^m; otherwise the product
        b of the Galois conjugates sigma_k (q -> q^k, k a unit mod p other
        than 1) over the rational norm N = self * b."""
        p, nums = self.p, self.nums
        nz = [m for m, a in enumerate(nums) if a]
        if not nz:
            raise ZeroDivisionError("division by zero in Q(q)")
        if len(nz) == 1:
            a = nums[nz[0]]
            s = self.den if a > 0 else -self.den
            return _canonical(p, [s * t for t in q_power(p, -nz[0]).nums],
                              abs(a))
        table = _power_table(p)
        conj = cyc_one(p)
        for k in range(2, p):
            if gcd(k, p) == 1:
                img = [0] * len(nums)
                for m, a in enumerate(nums):
                    if a:
                        for j, t in table[k * m % p]:
                            img[j] += a * t
                conj = conj * _trusted(p, tuple(img), 1)
        # with self = nums/den: N = norm/den^phi and b = conj/den^(phi-1)
        norm = (_trusted(p, nums, 1) * conj).nums[0]
        sign = 1 if norm > 0 else -1
        return _canonical(p, [sign * self.den * c for c in conj.nums],
                          sign * norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), None if k else cyc_one(self.p))

    def __eq__(self, other):
        if other.__class__ is not CycScalar or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return any(self.nums)

    def __hash__(self):
        return hash((self.p, self.nums, self.den))

    def monomial_form(self):
        """(k, r) if the element is r*q^k in the power basis, else None."""
        nz = [i for i, n in enumerate(self.nums) if n]
        if len(nz) == 1:
            return nz[0], Fraction(self.nums[nz[0]], self.den)
        if not nz:
            return 0, Fraction(0)
        return None

    def __repr__(self):
        return "CycScalar(p=%d, %s)" % (self.p, str(self))

    def __str__(self):
        from .printing import scalar_str

        return scalar_str(self)


def power(x, k, one):
    """x**k for an int k >= 0 by square-and-multiply, O(log k) products;
    `one` is returned for k = 0 and x itself for k = 1."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


def _trusted(p, nums, den):
    """A CycScalar from fields that are already canonical."""
    out = object.__new__(CycScalar)
    out.p = p
    out.nums = nums
    out.den = den
    return out


def _canonical(p, nums, den):
    """A CycScalar from a list of int numerators over a positive `den`."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _trusted(p, tuple([n // g for n in nums]), den // g)
    return _trusted(p, tuple(nums), den)


def cyc_zero(p: int) -> CycScalar:
    return CycScalar.from_rational(p, 0)


def cyc_one(p: int) -> CycScalar:
    return CycScalar.from_rational(p, 1)


def q_power(p: int, k: int) -> CycScalar:
    """q^(k mod p) reduced into the power basis of Q[q]/(Phi_p)."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    nums = [0] * euler_phi(p)
    for m, t in _power_table(p)[k % p]:
        nums[m] = t
    return _trusted(p, tuple(nums), 1)
