"""The graded tensor product calculus on Q[x, y] (x) M_2.

Forms split into bigraded components: a classical wedge symbol from
{1, dx, dy, dx dy} tensored with a matrix-direction form (a TensorForm
over polynomial scalars).  Multiplication carries the Koszul sign
(t1 x e1)(t2 x e2) = (-1)^(|e1| |t2|) t1 t2 x e1 e2, and the
differential acts by

    d(c x T) = dx c x dT/dx + dy c x dT/dy + (-1)^|c| c x d_mat(T),

where d_mat inserts identity legs as in the universal matrix calculus
and the partial derivatives hit the polynomial scalars.

A derivation is three polynomials (theta_x, theta_y, theta_r): the
coefficients of d/dx and d/dy, and the commutator with theta_S =
theta_r (E12 - E21), the general antisymmetric 2 x 2 matrix.  Interior
product evaluates against dx, dy and the matrix legs; the Lie derivative
is the unsigned derivation with L(da) = d(theta(a)), which replaces a
classical letter dxi in place by d(theta_xi); on each part it applies the
commutator leg-wise and adds the transport theta_x d/dx + theta_y d/dy of
the polynomial scalars straight into those terms, skipping a zero
component or partial.  For a non-constant theta_S the Lie derivative does
not keep the bidegree: on a matrix 1-form A d_mat(B) it contributes
A dx [dS/dx, B] + A dy [dS/dy, B] on top of the leg-wise commutator
action, extended to higher matrix degree with alternating junction
insertions, as in the matrix interior product.

A form's `freeze()`, the solver's cache key, reads the canonical
numerators and denominators that each `Poly` stores, so it builds no
Fraction; `coordinates()` gives the rationals themselves.
"""

from __future__ import annotations

from .algebra import Derivation, Form
from .matrixcalc import (MatrixDerivation, TensorForm, _is_scalar,
                         matrix_symplectic_form)
from .polynomials import P_ONE, Poly


def wedge(a, b):
    """(sign, sorted letters) of the classical wedge a ^ b of two sorted
    symbols, or None when they share a letter.  The sign is (-1) to the
    number of pairs (x in a, y in b) with x > y, the swaps that sort a + b."""
    if set(a) & set(b):
        return None
    return (-1) ** sum(x > y for x in a for y in b), tuple(sorted(a + b))


def _poly(v):
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


class BigradedForm(Form):
    """Map from classical wedge symbol to a matrix-direction TensorForm.

    No stored part is zero, so `is_zero` is an empty-dict test.  The
    constructor owns that invariant: it drops the zero parts of the dict
    it is given, so operations hand it their raw sums (see `_put`).
    """

    __slots__ = ("parts",)
    _printer = "bigraded_str"

    def __init__(self, parts=None):
        self.parts = {c: t for c, t in (parts or {}).items() if not t.is_zero()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def scalar(cls, value):
        return cls({(): TensorForm.identity(2).scale(_poly(value))})

    @classmethod
    def classical(cls, csym, value=1):
        """value * (csym tensor identity-matrix)."""
        return cls({tuple(csym): TensorForm.identity(2).scale(_poly(value))})

    @classmethod
    def lift(cls, t):
        """The matrix-direction form t, its scalars read as polynomials."""
        return cls({(): _map_scalars(t, _poly)})

    @classmethod
    def from_matrix(cls, mat):
        return cls.lift(TensorForm.from_matrix(mat))

    def component(self, csym):
        return self.parts.get(tuple(csym), TensorForm.zero(2, 0))

    def degrees(self):
        return sorted({len(c) + t.deg for c, t in self.parts.items()})

    def is_zero(self):
        return not self.parts

    def coordinates(self):
        """(classical symbol, tensor key, monomial) -> rational."""
        return {(csym, key, mono): c for csym, t in self.parts.items()
                for key, val in t.terms.items() for mono, c in val.items()}

    def freeze(self):
        """The canonical fields of every stored polynomial, frozen as
        (classical symbol, tensor key, monomial, denominator, numerator):
        equal exactly for equal forms, and no Fraction is built."""
        return frozenset((csym, key, mono, p.den, n)
                         for csym, t in self.parts.items()
                         for key, p in t.terms.items()
                         for mono, n in p.nums.items())

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BigradedForm):
            return NotImplemented
        parts = dict(self.parts)
        for csym, t in other.parts.items():
            _put(parts, csym, t)
        return BigradedForm(parts)

    def __neg__(self):
        return BigradedForm({c: -t for c, t in self.parts.items()})

    def scale(self, value):
        p = _poly(value)
        return BigradedForm({c: t.scale(p) for c, t in self.parts.items()})

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, BigradedForm):
            return NotImplemented
        parts = {}
        for c1, t1 in self.parts.items():
            for c2, t2 in other.parts.items():
                w = wedge(c1, c2)
                if w is None:
                    continue
                sign, csym = w
                if (t1.deg * len(c2)) % 2 == 1:
                    sign = -sign
                t = t1 * t2
                if sign < 0:
                    t = -t
                _put(parts, csym, t)
        return BigradedForm(parts)

    __rmul__ = __mul__      # reached only for a scalar, which commutes

    def tensor(self, other: "BigradedForm") -> "BigradedForm":
        if set(self.parts) - {()} or set(other.parts) - {()}:
            raise ValueError("tensor legs only combine matrix-direction parts")
        if not self.parts or not other.parts:
            return BigradedForm()
        return BigradedForm({(): self.parts[()].tensor(other.parts[()])})

    def __eq__(self, other):
        if not isinstance(other, BigradedForm):
            return NotImplemented
        return self.parts == other.parts

    def in_kernel(self):
        """Every part is a form: its adjacent legs multiply to zero."""
        return all(t.in_kernel() for t in self.parts.values())

    # -- calculus --------------------------------------------------------------

    def d(self):
        parts = {}
        for csym, t in self.parts.items():
            for var, dt in (("x", _map_scalars(t, Poly.diff_x)),
                            ("y", _map_scalars(t, Poly.diff_y))):
                w = wedge((var,), csym)
                if w is None:
                    continue
                sign, nc = w
                _put(parts, nc, dt if sign > 0 else -dt)
            dm = t.d()
            if len(csym) % 2 == 1:
                dm = -dm
            _put(parts, csym, dm)
        return BigradedForm(parts)


def _put(parts, csym, t):
    """Add t to parts[csym]; BigradedForm drops the parts that cancel."""
    cur = parts.get(csym)
    parts[csym] = t if cur is None else cur + t


def _map_scalars(t: TensorForm, fn) -> TensorForm:
    return TensorForm(t.n, t.deg, {k: fn(v) for k, v in t.terms.items()})


class MixedDerivation(Derivation):
    """(theta_x, theta_y, theta_r) acting as theta(f) = theta_x df/dx +
    theta_y df/dy + [theta_S, f], with theta_S = theta_r (E12 - E21)."""

    __slots__ = ("theta_x", "theta_y", "theta_r", "label", "_ad_s")

    def __init__(self, theta_x=0, theta_y=0, theta_r=0, label=None):
        self.theta_x = _poly(theta_x)
        self.theta_y = _poly(theta_y)
        self.theta_r = _poly(theta_r)
        self.label = label
        self._ad_s = None                   # ad(theta_S), built on first use

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MixedDerivation):
            return NotImplemented
        return MixedDerivation(
            self.theta_x + other.theta_x, self.theta_y + other.theta_y,
            self.theta_r + other.theta_r)

    def __rmul__(self, c):
        if not _is_scalar(c):
            return NotImplemented
        return MixedDerivation(c * self.theta_x, c * self.theta_y,
                               c * self.theta_r)

    def _ad(self):
        if self._ad_s is None:
            g = self.theta_r                # flat keys 1, 2 are E12, E21
            self._ad_s = MatrixDerivation(TensorForm(2, 0, {(1,): g, (2,): -g}))
        return self._ad_s

    # -- action ----------------------------------------------------------------

    def iprod(self, x: BigradedForm) -> BigradedForm:
        self._iprod_guard(x)
        evals = {"x": self.theta_x, "y": self.theta_y}
        ad = self._ad()
        parts = {}
        for csym, t in x.parts.items():
            for j, var in enumerate(csym):
                rest = csym[:j] + csym[j + 1:]
                term = t.scale(evals[var])
                if j % 2 == 1:
                    term = -term
                _put(parts, rest, term)
            if t.deg >= 1:
                term = ad.iprod(t)
                if len(csym) % 2 == 1:
                    term = -term
                _put(parts, csym, term)
        return BigradedForm(parts)

    def lie(self, x: BigradedForm) -> BigradedForm:
        # first derivatives of theta, each taken when a part first needs it
        dtheta = ds = None
        ad = self._ad()
        transport = [(theta, diff) for theta, diff in (
            (self.theta_x, Poly.diff_x), (self.theta_y, Poly.diff_y)) if theta]
        parts = {}
        for csym, t in x.parts.items():
            # replace each classical letter dxi by d(theta_xi) in place:
            # csym is a sorted subset of (x, y), so the new symbol is sorted
            # too, or repeats a letter and is zero
            if csym and dtheta is None:
                dtheta = {
                    "x": (self.theta_x.diff_x(), self.theta_x.diff_y()),
                    "y": (self.theta_y.diff_x(), self.theta_y.diff_y()),
                }
            for j, var in enumerate(csym):
                for r, coeff in zip(("x", "y"), dtheta[var]):
                    if coeff and (r == var or r not in csym):
                        _put(parts, csym[:j] + (r,) + csym[j + 1:],
                             t.scale(coeff))
            # leg-wise commutator, with the transport theta_x d/dx +
            # theta_y d/dy of the polynomial scalars added straight into its
            # terms; a zero component or a zero partial adds nothing
            terms = ad.lie(t).terms
            for key, c in t.terms.items():
                for theta, diff in transport:
                    dc = diff(c)
                    if dc:
                        acc = terms.get(key)
                        terms[key] = (dc * theta if acc is None
                                      else acc + dc * theta)
            _put(parts, csym, TensorForm(t.n, t.deg, terms))
            # bidegree leakage of a non-constant theta_S, which enters at
            # the junctions of a part of matrix degree >= 1
            if t.deg == 0:
                continue
            if ds is None:
                # d theta_S / d(var) = dg (E12 - E21) for g = theta_r
                ds = [(var, [[0, dg], [-dg, 0]]) for var, dg in
                      (("x", self.theta_r.diff_x()),
                       ("y", self.theta_r.diff_y())) if dg]
            for var, dS in ds:
                w = wedge(csym, (var,))
                if w is None:
                    continue
                sign, nc = w
                acc = t.contract_alternating(dS)
                if sign < 0:
                    acc = -acc
                _put(parts, nc, acc)
        return BigradedForm(parts)

    def commutator(self, other: "MixedDerivation") -> "MixedDerivation":
        def transport(theta, g):
            return theta.theta_x * g.diff_x() + theta.theta_y * g.diff_y()

        tx = transport(self, other.theta_x) - transport(other, self.theta_x)
        ty = transport(self, other.theta_y) - transport(other, self.theta_y)
        # [g J, h J] = 0, so theta_r only transports
        tr = transport(self, other.theta_r) - transport(other, self.theta_r)
        return MixedDerivation(tx, ty, tr)

    def coordinates(self):
        return {(head, mono): c for head, p in (
            ("x", self.theta_x), ("y", self.theta_y), ("r", self.theta_r))
            for mono, c in p.items()}

    def describe(self):
        """The three components, printed."""
        return {"theta_x": str(self.theta_x), "theta_y": str(self.theta_y),
                "theta_S(1,2)": str(self.theta_r)}

    def __repr__(self):
        return ("mixed derivation(theta_x=%s, theta_y=%s, theta_S12=%s)"
                % (self.theta_x, self.theta_y, self.theta_r))


def poly_matrix_symplectic_form() -> BigradedForm:
    """omega = dx dy + 1/2 sum dE_ij dE_ij + dx (dE_12 - dE_21)."""
    om = BigradedForm.classical(("x", "y"))
    # its 1/2 is a Fraction; every part keeps Poly coefficients for d and L
    om = om + BigradedForm.lift(matrix_symplectic_form(2))
    j_mat = TensorForm(2, 0, {(0 * 2 + 1,): P_ONE, (1 * 2 + 0,): -P_ONE})
    om = om + BigradedForm({("x",): j_mat.d()})
    return om
