"""One solver-facing surface for every calculus backend.

The symplectic machinery needs a handful of primitives: the differential,
zero tests, a hashable freeze of a form (for caching), and linear
combinations of derivations.  On every backend, forms answer `is_zero()`
and `coordinates()` (exact coordinates in a canonical basis, for the
linear solver) and derivations `describe()` themselves, so callers ask
them directly; a backend differs only in constructor data: its differential
and its zero derivation.
The presented backend covers every presentation, algebra-only ones (a
`CalculusPresentation` with no form rules) included.
"""

from __future__ import annotations

from .cartan import PresentedDerivation


class Backend:
    def __init__(self, d, zero_derivation):
        self.d = d
        self.zero_derivation = zero_derivation

    @classmethod
    def presented(cls, calculus):
        return cls(calculus.d, PresentedDerivation(calculus, {}))

    @staticmethod
    def is_zero(x):
        return x.is_zero()

    @staticmethod
    def freeze(x):
        return frozenset(x.coordinates().items())

    def combo(self, coeffs, derivations):
        """sum c * theta over the nonzero coefficients."""
        out = None
        for c, theta in zip(coeffs, derivations):
            if c:
                term = c * theta
                out = term if out is None else out + term
        return self.zero_derivation if out is None else out
