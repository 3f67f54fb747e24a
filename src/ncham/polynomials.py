"""Sparse exact polynomials in two commuting variables x, y.

Coefficients are nonzero Fractions; exponent pairs map to coefficients.
Arithmetic results keep that invariant by construction and skip the
re-validation the public constructor does.  Partial
derivatives are exact, which is all the tensor-product model needs: the
smooth functions of the plane are represented by polynomials throughout.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[mono] = c

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): Fraction(c)})

    @classmethod
    def x(cls):
        return cls.monomial(1, 0)

    @classmethod
    def y(cls):
        return cls.monomial(0, 1)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                m = (i1 + i2, j1 + j2)
                c = c1 * c2
                acc = out.get(m)
                acc = c if acc is None else acc + c
                if acc:
                    out[m] = acc
                elif m in out:
                    del out[m]
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1, 1) / Fraction(other)
            return _trusted({m: c * inv for m, c in self.coeffs.items()})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def diff_x(self):
        return _trusted({(i - 1, j): c * i
                         for (i, j), c in self.coeffs.items() if i})

    def diff_y(self):
        return _trusted({(i, j - 1): c * j
                         for (i, j), c in self.coeffs.items() if j})

    def degree(self):
        return max((i + j for (i, j) in self.coeffs), default=0)

    def __str__(self):
        from .printing import poly_str

        return poly_str(self)

    __repr__ = __str__


def _trusted(coeffs):
    """A Poly over `coeffs`, whose values are already nonzero Fractions."""
    out = object.__new__(Poly)
    out.coeffs = coeffs
    return out


P_ZERO = Poly()
P_ONE = Poly.const(1)
