"""Presented differential graded algebras.

A calculus presentation has the algebra generators, one degree-1 form
generator dg per algebra generator, and one rewrite system over all of
these letters.  Each letter has its own name: generator names are unique,
and none is d followed by another generator's name.  Its rules are the
algebra rules, which relate 0-forms and so name no differential, then
the form rules, then the derived inverse variants of both.  The full
letter precedence (differentials and algebra letters interleaved as the
model requires) is declared at construction; by default differentials
come first, in reverse generator order, so that torus-style normal
forms read dv du u^n v^m.

The differential is the signed derivation with d(g) = dg, d(dg) = 0 and,
for invertible generators, d(g^-1) = -g^-1 dg g^-1, which is forced by
the Leibniz rule on g g^-1 = 1.  d and every L_theta (`cartan`) take
their letter images from one rule, `letter_image`.  d's images form a
table built once the rules are in (`finish_rules`), and `d` is one call
of `RewriteSystem.leibniz` over it: one normalization per call.  No
rewrite rules are guessed: where a commutation between letters is not
installed, words are left unreduced.

This is the one presented-algebra type: an algebra-only presentation is a
calculus with no form rules, `CalculusPresentation(gens, rules, [], ...)`,
whose 0-forms are the algebra and whose differentials no rule relates.
"""

from __future__ import annotations

from .algebra import Element, RewriteSystem, _build_table


class CalculusPresentation:
    """Generators, their differentials and one rewrite system for both."""

    def __init__(self, generators, algebra_rules, form_rules, p=1,
                 letter_order=None):
        self.generators = tuple(generators)
        self.p = p
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for n in names:
            if n.startswith("d") and n[1:] in names:
                raise ValueError("generator %r: generator and differential "
                                 "names must differ" % n)
        if letter_order is None:
            letter_order = names
        letter_order = ["d" + n for n in reversed(names)
                        if "d" + n not in letter_order] + list(letter_order)
        self.system = RewriteSystem(_build_table(self.generators, letter_order), p)
        for n in names:
            if n not in letter_order:
                raise ValueError("letter order omits generator %r" % n)
        for spec in algebra_rules:
            self.add_algebra_rule(spec)
        for spec in form_rules:
            self.system.add_rule(spec)
        self.finish_rules()

    def add_algebra_rule(self, spec):
        """Install a rule between 0-forms, which names no differential."""
        diffs = {"d" + g.name for g in self.generators}
        for name, _ in list(spec.lhs) + [f for _, word in spec.rhs for f in word]:
            if name in diffs:
                raise ValueError("an algebra rule has degree 0, but this one "
                                 "names the differential %s" % name)
        return self.system.add_rule(spec)

    def finish_rules(self):
        """Install the derived inverse variants, then build d's letter
        images under all the rules; call again after adding rules."""
        self.system.install_inverse_variants()
        # d(g) = dg, d(g^-1) = -g^-1 dg g^-1 and d(dg) = 0
        self._d_of_letter = [
            None if lt.diff else self.letter_image(li, self.dgen(lt.base))
            for li, lt in enumerate(self.system.table.letters)]

    def letter_image(self, li, img):
        """The terms by which a derivation D with D(g) = img replaces the
        letter li: img for g, and -g^-1 img g^-1, normalized once, for g^-1."""
        if self.system.table.letters[li].exp == 1:
            return img.terms
        concat = self.system.table.concat
        return Element(self.system, {concat((li,), w, (li,)): -c
                                     for w, c in img.terms.items()}).terms

    # -- constructors ----------------------------------------------------

    def zero(self):
        return Element.zero(self.system)

    def one(self):
        return Element.one(self.system)

    def scalar(self, c):
        return Element(self.system, {(): self.system.scalar(c)}, normal=True)

    def gen(self, name, exp=1):
        return self.element([(name, exp)])

    def dgen(self, name):
        return self.element([("d" + name, 1)])

    def element(self, factors, coeff=1):
        """coeff times the word of (name, exp) factors, normalized."""
        system = self.system
        return Element(system,
                       {system.encode_word(factors): system.scalar(coeff)})

    def namespace(self):
        """Display name -> element, for the expression parser."""
        ns = {}
        for g in self.generators:
            ns[g.name] = self.gen(g.name)
            ns["d" + g.name] = self.dgen(g.name)
        return ns

    # -- the differential -------------------------------------------------

    def d(self, x: Element) -> Element:
        """Signed Leibniz derivation with d^2 = 0."""
        return self.system.leibniz(x, self._d_of_letter.__getitem__, signed=True)
