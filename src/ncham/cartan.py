"""Derivations and the Cartan operations on presented calculi.

A derivation is determined by its images on the algebra generators and
extended everywhere by the Leibniz rule; for an invertible generator the
image of g^-1 is -g^-1 theta(g) g^-1, forced by theta(g g^-1) = 0.  L_theta
takes its letter images from `CalculusPresentation.letter_image`, the one
rule d's letter images come from too.  The interior product is the
signed derivation of degree -1 with theta _| dg = theta(g); the Lie
derivative is the unsigned derivation of degree 0 with
L(dg) = d(theta(g)), and theta(a) is L on a 0-form
(`Derivation.apply`).  _| and L are one `RewriteSystem.leibniz` call
each, with one normalization per call.  The substitution of each letter
is computed the first time it is needed and kept on the derivation,
whose images must not change after construction.

These operations are only well defined when they annihilate every
relation of the calculus, so `check_consistency` (theta.consistency())
reduces theta(R), theta _| R and L_theta(R) to normal form for each
installed rule R and reports the residuals;
`DerivationSpace.inconsistent` lists the members of an ansatz that fail it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import DegreeError, Derivation, Element, Record
from .forms import CalculusPresentation
from .scalars import CycScalar


class PresentedDerivation(Derivation):
    """Derivation on a presented calculus, given by generator images."""

    def __init__(self, calculus: CalculusPresentation, images, label=None):
        self.calculus = calculus
        self.images = {}
        names = {g.name for g in calculus.generators}
        for name, img in images.items():
            if name not in names:
                raise KeyError("unknown generator %r" % name)
            if not isinstance(img, Element):
                raise TypeError("image of %s must be an Element" % name)
            # an Element is in normal form already; it must be this one's
            if img.system is not calculus.system:
                raise ValueError("element belongs to a different calculus")
            self.images[name] = img
            if any(map(calculus.system.table.word_degree, img.terms)):
                raise ValueError("image of %s must be a 0-form, not %s"
                                 % (name, img))
        for g in calculus.generators:
            self.images.setdefault(g.name, calculus.zero())
        self.label = label
        self._subs = [None] * len(calculus.system.table.letters)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PresentedDerivation):
            return NotImplemented
        if other.calculus is not self.calculus:
            raise ValueError("derivations on different calculi")
        return PresentedDerivation(
            self.calculus,
            {n: self.images[n] + other.images[n] for n in self.images})

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, CycScalar)):
            return NotImplemented
        return PresentedDerivation(
            self.calculus, {n: img * scalar for n, img in self.images.items()})

    # -- action -----------------------------------------------------------

    def _substitution(self, li):
        """Terms replacing letter li under L_theta, computed once per letter:
        theta(g), -g^-1 theta(g) g^-1 (`CalculusPresentation.letter_image`),
        or d(theta(g)) for dg."""
        terms = self._subs[li]
        if terms is None:
            calc = self.calculus
            lt = calc.system.table.letters[li]
            img = self.images[lt.base]
            terms = self._subs[li] = (calc.d(img).terms if lt.diff
                                      else calc.letter_image(li, img))
        return terms

    def iprod(self, x: Element) -> Element:
        """Interior product: signed derivation, degree -1."""
        self._iprod_guard(x)
        table = self.calculus.system.table

        def image(li):
            if table.is_diff[li]:
                return self.images[table.letters[li].base].terms
        return self.calculus.system.leibniz(x, image, signed=True)

    def lie(self, x: Element) -> Element:
        """Lie derivative: unsigned derivation, degree 0."""
        return self.calculus.system.leibniz(x, self._substitution, signed=False)

    def commutator(self, other: "PresentedDerivation") -> "PresentedDerivation":
        if other.calculus is not self.calculus:
            raise ValueError("derivations on different calculi")
        images = {}
        for g in self.calculus.generators:
            images[g.name] = (self.apply(other.images[g.name])
                              - other.apply(self.images[g.name]))
        return PresentedDerivation(self.calculus, images)

    def coordinates(self):
        coords = {}
        for name, img in self.images.items():
            for w, c in img.terms.items():
                coords[(name, w)] = c
        return coords

    def describe(self):
        """generator -> its image, printed."""
        return {name: str(img) for name, img in sorted(self.images.items())}

    def consistency(self):
        return check_consistency(self)

    def __repr__(self):
        body = ", ".join("%s -> %s" % (n, self.images[n])
                         for n in sorted(self.images))
        return "derivation(%s)" % body


def iprod_or_zero(theta, x):
    """theta _| x with the convention that _| vanishes on 0-forms."""
    try:
        return theta.iprod(x)
    except DegreeError:
        return x - x


# -- consistency ---------------------------------------------------------


class ConsistencyCheck(Record):
    __slots__ = ("description", "residual", "ok")

    def __init__(self, description, residual, ok):
        self.description, self.residual, self.ok = description, residual, ok


class ConsistencyReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def summary(self):
        lines = ["consistency checks: %d, failing: %d"
                 % (len(self.checks), len(self.failures()))]
        for c in self.failures():
            lines.append("  FAIL %s: residual %s" % (c.description, c.residual))
        return "\n".join(lines)


def check_consistency(theta: PresentedDerivation) -> ConsistencyReport:
    """Reduce theta(R), theta _| R and L_theta(R) for every relation R.

    Algebra relations are checked under apply; form relations under both
    the interior product and the Lie derivative.  Derived inverse-variant
    rules are consequences of the declared ones, but checking them too is
    cheap and catches encoding mistakes.  The relations are built once per
    rule set (`RewriteSystem.relations`), so a check costs only theta's
    own Leibniz work.
    """
    report = ConsistencyReport()
    ops = {True: (("apply", theta.apply),),
           False: (("iprod", theta.iprod), ("lie", theta.lie))}
    for desc, _, _, rel, algebraic in theta.calculus.system.relations():
        for name, op in ops[algebraic]:
            res = op(rel)
            report.checks.append(ConsistencyCheck(name + " on " + desc, res,
                                                  res.is_zero()))
    return report


# -- torus classification -------------------------------------------------


def classify_torus_derivations(calculus: CalculusPresentation, bound: int):
    """Basis of consistent derivations of a torus calculus with exponent
    offsets <= bound.

    With p = calculus.p, the consistent family is theta(u) in
    span{u^(1+sp) v^(tp)} and theta(v) in span{u^(sp) v^(1+tp)}; the
    returned basis has one member per monomial image with |s|, |t| <=
    bound, u-type first, ordered by (s, t).  `tests` confirm by brute
    force that nothing else passes the consistency check.
    """
    p = calculus.p
    rng = range(-bound, bound + 1)
    return [PresentedDerivation(
                calculus,
                {gen: calculus.element([("u", du + s * p), ("v", dv + t * p)])},
                label="%s[%d,%d]" % (name, s, t))
            for gen, name, du, dv in (("u", "b", 1, 0), ("v", "c", 0, 1))
            for s in rng for t in rng]


# -- derivation spaces ------------------------------------------------------


class DerivationSpace:
    """A finite basis of derivations.  It is not checked on construction:
    `inconsistent()` lists the members that fail their consistency check,
    which `certify`, the CLI and `ModelDescriptor.require_sound` report on.
    """

    def __init__(self, basis):
        self.basis = list(basis)

    def inconsistent(self):
        """(theta, report) for each member failing its consistency check."""
        out = []
        for theta in self.basis:
            rep = theta.consistency()
            if rep is not None and not rep.ok:
                out.append((theta, rep))
        return out
