"""Exact coefficient arithmetic: rationals and the cyclotomic field Q(q).

The deformation parameter q is a primitive p-th root of unity, realized as
the quotient field Q[q]/(Phi_p(q)) where Phi_p is the p-th cyclotomic
polynomial.  An element is stored in the power basis 1, q, ..., q^(phi(p)-1)
as integer numerators over one positive common denominator, the layout of
FLINT's fmpq_poly and nf_elem: `nums` is a tuple of phi(p) ints and `den`
a positive int.  The form is canonical: gcd(den, *nums) == 1, and zero is
(0, ..., 0)/1, so equal elements have equal fields and equal hashes.

Phi_p is monic with integer coefficients, so a product is an integer
convolution reduced by an integer table of the powers of q, then one gcd;
at phi(p) = 1 it is a single integer multiply.  q**p == 1 holds on the
nose, every nonzero element is invertible, and all arithmetic is exact.
p = 1 gives plain rationals (q = 1), p = 2 gives q = -1 concretely.
`.coeffs` gives the coordinates as a tuple of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists (ascending)."""
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(p: int) -> tuple:
    """Coefficients of Phi_p, ascending, via x^p - 1 = prod_{d|p} Phi_d."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(-1)] + [_ZERO] * (p - 1) + [Fraction(1)]
    for d in range(1, p):
        if p % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(p: int) -> tuple:
    """q^k in the power basis for k = 0 .. max(2*(phi-1), p-1).

    Row k lists the pairs (m, t), t a nonzero int, with q^k = sum t q^m.
    That covers every degree of an unreduced product and every q^k with
    0 <= k < p.
    """
    phi_p = [int(c) for c in cyclotomic_polynomial(p)]
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
        """Extended Euclid in Q[x] against Phi_p; exact field inverse."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(q)")
        r0, r1 = list(cyclotomic_polynomial(self.p)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            quo, rem = _poly_divmod(r0, r1)
            s_new = list(s0)
            s_new += [_ZERO] * (len(quo) + len(s1) - 1 - len(s_new))
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s1):
                        s_new[i + j] -= qi * sj
            r0, r1, s0, s1 = r1, rem, s1, _poly_trim(s_new)
        inv = 1 / r1[0]
        phi = euler_phi(self.p)
        out = [c * inv for c in s1] + [_ZERO] * (phi - len(s1))
        # s1 may exceed the basis length before reduction mod Phi_p
        if len(out) > phi:
            _, out = _poly_divmod(out, list(cyclotomic_polynomial(self.p)))
            out = list(out) + [_ZERO] * (phi - len(out))
        return CycScalar(self.p, out[:phi])

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
        if k < 0:
            return self.inverse() ** (-k)
        out = CycScalar.from_rational(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
            return 0, _ZERO
        return None

    def __repr__(self):
        return "CycScalar(p=%d, %s)" % (self.p, str(self))

    def __str__(self):
        from .printing import scalar_str

        return scalar_str(self)


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
