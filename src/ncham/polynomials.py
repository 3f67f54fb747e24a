"""Sparse exact polynomials in two commuting variables x, y.

A polynomial is stored as integer numerators over one positive common
denominator, the layout of FLINT's fmpq_mpoly and of `CycScalar`: `nums`
is a dict from exponent pair (i, j) to a nonzero int and `den` a positive
int.  The form is canonical: gcd(den, *nums) == 1, and zero is {} over 1,
so equal polynomials have equal fields and equal hashes; a constant hashes
as the int or Fraction it equals.  A product is an integer convolution
followed by one gcd, except that a constant factor (a single (0, 0)
monomial, an int or a Fraction) scales the other's numerators with one gcd
and no convolution, and a +-1 constant leaves the other factor or its
negation; a sum over equal denominators adds numerators directly.
`.items()` yields the coefficients as (exponent pair, nonzero Fraction)
pairs, and `.coeffs` collects them in a dict.

Partial derivatives are exact, which is all the tensor-product model
needs: the smooth functions of the plane are represented by polynomials
throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Printed, power


class Poly(Printed):
    """An element of Q[x, y], exact, immutable and canonical.

    `Poly(coeffs)` takes a dict from exponent pair to int or Fraction.
    """

    __slots__ = ("nums", "den")
    _printer = "poly_str"

    def __init__(self, coeffs=None):
        coeffs = [(m, Fraction(c)) for m, c in coeffs.items()] if coeffs else []
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1
        den = lcm(*(c.denominator for _, c in coeffs))
        self.nums = {m: c.numerator * (den // c.denominator)
                     for m, c in coeffs if c}
        self.den = den

    def items(self):
        """The (exponent pair, nonzero Fraction) pairs, built as read."""
        den = self.den
        return ((m, Fraction(n, den)) for m, n in self.nums.items())

    @property
    def coeffs(self):
        """The coefficients, a dict from exponent pair to nonzero Fraction."""
        return dict(self.items())

    @classmethod
    def const(cls, c):
        return cls.monomial(0, 0, c)

    @classmethod
    def monomial(cls, i, j, c=1):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return _trusted({}, 1)
        return _trusted({(i, j): c.numerator}, c.denominator)

    @classmethod
    def x(cls):
        return cls.monomial(1, 0)

    @classmethod
    def y(cls):
        return cls.monomial(0, 1)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other, sign=1):
        # sign=-1 gives self - other (__sub__)
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        b = other.nums
        if not b:
            return self
        a = self.nums
        if not a:
            return other if sign == 1 else -other
        d1, d2 = self.den, other.den
        if d1 == d2:
            out = dict(a)
            s2 = sign
        else:
            out = {m: n * d2 for m, n in a.items()}
            s2 = sign * d1
            d1 *= d2
        get = out.get
        for m, n in b.items():
            acc = get(m, 0) + n * s2
            if acc:
                out[m] = acc
            else:
                del out[m]
        return _canonical(out, d1)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.nums, other.nums
        # a constant factor scales the other's numerators: no convolution
        if len(b) == 1 and (0, 0) in b:
            return self._scale(b[0, 0], other.den)
        if len(a) == 1 and (0, 0) in a:
            return other._scale(a[0, 0], self.den)
        out = {}
        get = out.get
        b = b.items()
        for (i1, j1), x in a.items():
            for (i2, j2), y in b:
                m = (i1 + i2, j1 + j2)
                out[m] = get(m, 0) + x * y
        return _canonical({m: n for m, n in out.items() if n},
                          self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, num, den):
        """self * num/den for a nonzero int num and a positive int den; a
        +-1 factor leaves self or its negation."""
        if den == 1 and (num == 1 or num == -1):
            return self if num == 1 else -self
        return _canonical({m: n * num for m, n in self.nums.items()},
                          self.den * den)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return power(self, k, P_ONE)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a polynomial by zero")
            num, den = other.numerator, other.denominator
            if num < 0:
                num, den = -num, -den
            return self._scale(den, num)
        return NotImplemented

    def __eq__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        nums = self.nums
        if not nums or len(nums) == 1 and (0, 0) in nums:
            return hash(Fraction(nums.get((0, 0), 0), self.den))
        return hash((frozenset(nums.items()), self.den))

    def __bool__(self):
        return bool(self.nums)

    def diff_x(self):
        return _canonical({(i - 1, j): n * i
                           for (i, j), n in self.nums.items() if i}, self.den)

    def diff_y(self):
        return _canonical({(i, j - 1): n * j
                           for (i, j), n in self.nums.items() if j}, self.den)


def _trusted(nums, den):
    """A Poly from fields that are already canonical."""
    out = object.__new__(Poly)
    out.nums = nums
    out.den = den
    return out


def _canonical(nums, den):
    """A Poly from a dict of nonzero int numerators over a positive `den`."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return _trusted({m: n // g for m, n in nums.items()}, den // g)
    return _trusted(nums, den)


P_ONE = Poly.const(1)
