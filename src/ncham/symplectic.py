"""Hamiltonian machinery for a closed 2-form on any calculus backend.

omega_tilde sends a derivation theta to theta _| omega.  For a closed
omega, theta preserves omega exactly when d(theta _| omega) = 0, and
omega is nonsingular relative to a finite ansatz space V when omega_tilde
has trivial kernel on the span of V.  An element a is Hamiltonian
relative to V when the exact linear system omega_tilde(X) = da has a
solution X in span(V); then {a, b} = X_a(b), and the truncated flow of b
is exp(t X_b) a cut at a fixed order.  Everything is solved by exact
elimination (`linalg`) over the coefficient field; there is no
tolerance anywhere.

HamiltonianSolver is the one solver surface: it factorizes omega_tilde
on the ansatz (a DerivationSpace) once and answers solve, poisson and
flow from that factorization.  A model builds it on first use and keeps
it as `model.solver`.

The solver reads a calculus only through its form's `Backend`: the
differential, zero tests, a hashable freeze of a form (for caching) and
linear combinations of derivations.  Forms answer `is_zero()` and
`coordinates()` and derivations `describe()` themselves, so a backend is
a differential and a zero derivation; `Backend.presented` serves every
presented calculus, algebra-only ones included.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Record
from .cartan import DerivationSpace, PresentedDerivation
from .linalg import ExactLinearSystem


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


class SingularFormError(ValueError):
    """The 2-form has nontrivial kernel on the ansatz; refusing to solve."""


class NotHamiltonianError(ValueError):
    def __init__(self, verdict):
        super().__init__("element is not Hamiltonian relative to the ansatz: "
                         "residual has %d coordinates" % len(verdict.residual))
        self.verdict = verdict


class SymplecticForm(Record):
    """A closed 2-form on a backend; the constructor checks d omega = 0."""

    __slots__ = ("backend", "omega")

    def __init__(self, backend, omega):
        self.backend, self.omega = backend, omega
        self.check_closed()

    def check_closed(self):
        residual = self.backend.d(self.omega)
        if not self.backend.is_zero(residual):
            raise ValueError("the 2-form is not closed: d omega = %s"
                             % residual)


class KernelReport(Record):
    __slots__ = ("dimension", "basis")

    def __init__(self, dimension, basis):
        self.dimension = dimension
        self.basis = basis           # coefficient vectors over the ansatz

    @property
    def nonsingular(self):
        return self.dimension == 0

    def summary(self):
        if self.nonsingular:
            return "omega_tilde kernel: 0 (nonsingular on the ansatz)"
        return "omega_tilde kernel dimension: %d" % self.dimension


class HamiltonianSolution(Record):
    __slots__ = ("element", "coefficients", "vector_field")

    def __init__(self, element, coefficients, vector_field):
        self.element, self.coefficients = element, coefficients
        self.vector_field = vector_field  # X_a, omega_tilde(X_a) = da exactly

    @property
    def hamiltonian(self):
        return True


class NotHamiltonian(Record):
    __slots__ = ("element", "residual")

    def __init__(self, element, residual):
        self.element = element
        self.residual = residual     # coordinates of da outside the image

    @property
    def hamiltonian(self):
        return False


class HamiltonianSolver:
    """Factorizes omega_tilde on an ansatz once; solves many right sides.

    A flow is truncated at an order 0 <= k <= MAX_FLOW_ORDER: its k-th
    coefficient applies X_b k times, and on the torus every application
    lengthens the words, so time and memory grow fast with k (on
    torus:p=2 the flow of u^6 v^6 to order 32 exhausts 2 GB).
    """

    MAX_FLOW_ORDER = 16

    def __init__(self, form: SymplecticForm, space: DerivationSpace):
        self.form = form
        self.space = space
        self.backend = form.backend
        self._system = ExactLinearSystem(
            [theta.iprod(form.omega).coordinates() for theta in space.basis])
        self._kernel = self._system.nullspace()
        self._cache = {}

    def kernel_report(self) -> KernelReport:
        return KernelReport(len(self._kernel), self._kernel)

    def solve(self, a):
        if self._kernel:
            raise SingularFormError(
                "omega_tilde has kernel of dimension %d on the ansatz"
                % len(self._kernel))
        # before the cache: a zero TensorForm keeps its degree, but its
        # freeze is the same as that of the zero 0-form
        if any(a.degrees()):
            raise ValueError("a Hamiltonian must be a 0-form")
        key = self.backend.freeze(a)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        da = self.backend.d(a)
        rhs = da.coordinates()
        coeffs, unreached = self._system.project(rhs)
        if unreached:
            out = NotHamiltonian(a, unreached)
        else:
            x_a = self.backend.combo(coeffs, self.space.basis)
            residual = x_a.iprod(self.form.omega) - da
            if not self.backend.is_zero(residual):
                raise AssertionError("solver produced a nonzero residual")
            out = HamiltonianSolution(a, coeffs, x_a)
        self._cache[key] = out
        return out

    def require_field(self, a):
        sol = self.solve(a)
        if not sol.hamiltonian:
            raise NotHamiltonianError(sol)
        return sol.vector_field

    def poisson(self, a, b):
        """{a, b} = X_a(b); both arguments must be Hamiltonian."""
        x_a = self.require_field(a)
        self.require_field(b)
        return x_a.apply(b)

    def flow(self, b, a, order: int):
        """Truncated formal flow exp(t X_b) a as a FlowSeries."""
        if not 0 <= order <= self.MAX_FLOW_ORDER:
            raise ValueError("flow order %d is outside the bounds 0..%d"
                             % (order, self.MAX_FLOW_ORDER))
        if any(a.degrees()):
            raise ValueError("the transported element must be a 0-form")
        x_b = self.require_field(b)
        coeffs = [a]
        cur = a
        fact = 1
        for k in range(1, order + 1):
            cur = x_b.apply(cur)
            fact *= k
            coeffs.append(cur * Fraction(1, fact))
        return FlowSeries(coeffs)


class FlowSeries(Record):
    """Polynomial in the formal time t with element coefficients.

    coefficients[k] is the coefficient of t^k, the 1/k! included.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = coefficients

    def coefficient(self, k):
        return self.coefficients[k]

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coefficients):
            body = str(c)
            if k == 0:
                parts.append(body)
            else:
                t = "t" if k == 1 else "t^%d" % k
                parts.append("%s (%s)" % (t, body))
        return " + ".join(parts)

    __repr__ = __str__

