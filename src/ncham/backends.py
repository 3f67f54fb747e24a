"""Thin adapters giving every calculus backend one solver-facing surface.

The symplectic machinery only needs a handful of primitives: the
differential, zero tests, exact coordinates of a form in a canonical
basis (for the linear solver), a hashable freeze of a form (for caching),
and linear combinations of derivations; the CLI adds a display of a
derivation's images.  Elements and derivations already share their
arithmetic dunders and `str` across backends, so adapters do not wrap
them.
"""

from __future__ import annotations

from fractions import Fraction

from .bigraded import MixedDerivation
from .forms import CalculusPresentation
from .matrixcalc import MatrixDerivation, TensorForm
from .polynomials import Poly


class PresentedAdapter:
    kind = "presented"

    def __init__(self, calculus: CalculusPresentation):
        self.calculus = calculus
        self.field_one = calculus.system.one()

    def d(self, x):
        return self.calculus.d(x)

    def is_zero(self, x):
        return x.is_zero()

    def coordinates(self, x):
        return dict(x.terms)

    def freeze(self, x):
        return frozenset(x.terms.items())

    def combo(self, coeffs, derivations):
        out = None
        for c, theta in zip(coeffs, derivations):
            if not c:
                continue
            term = c * theta
            out = term if out is None else out + term
        if out is None:
            from .cartan import PresentedDerivation

            return PresentedDerivation(self.calculus, {})
        return out

    def describe_derivation(self, theta):
        return {name: str(img) for name, img in sorted(theta.images.items())}


class MatrixAdapter:
    kind = "matrix"

    def __init__(self, n):
        self.n = n
        self.field_one = Fraction(1)

    def d(self, x):
        return x.d()

    def is_zero(self, x):
        return x.is_zero()

    def coordinates(self, x):
        return dict(x.terms)

    def freeze(self, x):
        return (x.degree, frozenset(x.terms.items()))

    def combo(self, coeffs, derivations):
        out = MatrixDerivation.zero(self.n)
        for c, theta in zip(coeffs, derivations):
            if c:
                out = out + c * theta
        return out

    def describe_derivation(self, theta):
        from .printing import unit_name

        out = {}
        for i in range(self.n * self.n):
            img = theta.apply_unit(i)
            if img:
                out[unit_name(self.n, i)] = str(
                    TensorForm(self.n, 0, {(o,): v for o, v in img.items()}))
        return out


class BigradedAdapter:
    kind = "bigraded"

    def __init__(self):
        self.field_one = Fraction(1)

    def d(self, x):
        return x.d()

    def is_zero(self, x):
        return x.is_zero()

    def coordinates(self, x):
        coords = {}
        for csym, t in x.parts.items():
            for key, val in t.terms.items():
                poly = val if isinstance(val, Poly) else Poly.const(val)
                for mono, c in poly.coeffs.items():
                    coords[(csym, key, mono)] = c
        return coords

    def freeze(self, x):
        return frozenset(self.coordinates(x).items())

    def combo(self, coeffs, derivations):
        out = MixedDerivation()
        for c, theta in zip(coeffs, derivations):
            if c:
                out = out + c * theta
        return out

    def describe_derivation(self, theta):
        return {"theta_x": str(theta.theta_x), "theta_y": str(theta.theta_y),
                "theta_S(1,2)": str(theta.theta_s[0][1])}
