"""Presented differential graded algebras.

A calculus presentation extends an algebra presentation by one degree-1
form generator dg per algebra generator and by graded rewrite rules.  The
full letter precedence (differentials and algebra letters interleaved as
the model requires) is declared at construction; by default differentials
come first, in reverse generator order, so that torus-style normal forms
read dv du u^n v^m.

The differential is the signed derivation with d(g) = dg, d(dg) = 0 and,
for invertible generators, d(g^-1) = -g^-1 dg g^-1, which is forced by
the Leibniz rule on g g^-1 = 1.  These letter images form a table built
once per calculus, and `d` is one call of `RewriteSystem.leibniz` over it:
one normalization per call.  No rewrite rules are guessed: where a
commutation between letters is not installed, words are left unreduced.
"""

from __future__ import annotations

from .algebra import Element, Presentation, RewriteSystem, _build_table


class CalculusPresentation:
    """Algebra presentation plus form generators and graded rules."""

    def __init__(self, generators, algebra_rules, form_rules, p=1,
                 letter_order=None, max_degree=None, step_budget=10 ** 6):
        self.generators = tuple(generators)
        self.p = p
        self.max_degree = max_degree
        names = [g.name for g in self.generators]
        if letter_order is None:
            letter_order = ["d" + n for n in reversed(names)] + names
        else:
            missing = ["d" + n for n in reversed(names)
                       if "d" + n not in letter_order]
            letter_order = missing + list(letter_order)
        self.letter_order = tuple(letter_order)
        self.base = Presentation(self.generators, algebra_rules, p=p,
                                 precedence=[n for n in letter_order
                                             if not (n.startswith("d") and n[1:] in names)]
                                 or names,
                                 step_budget=step_budget)
        self.system = RewriteSystem(_build_table(self.generators, self.letter_order),
                                    p, step_budget, max_degree=max_degree)
        self.algebra_rule_specs = tuple(algebra_rules)
        self.form_rule_specs = tuple(form_rules)
        self._algebra_rules = [self.system.add_rule(s) for s in self.algebra_rule_specs]
        self._form_rules = [self.system.add_rule(s) for s in self.form_rule_specs]
        self.system.install_inverse_variants()
        table = self.system.table
        diff_of = {lt.base: i for i, lt in enumerate(table.letters) if lt.diff}
        one = self.system.one()
        # d(g) = dg and d(g^-1) = -g^-1 dg g^-1, normalized; d(dg) = 0
        self._d_of_letter = []
        for li, lt in enumerate(table.letters):
            dg = diff_of[lt.base]
            if lt.diff:
                terms = None
            elif lt.exp == 1:
                terms = {(dg,): one}
            else:
                terms = {table.concat((li,), (dg,), (li,)): -one}
            self._d_of_letter.append(terms and Element(self.system, terms).terms)

    # -- constructors ----------------------------------------------------

    def zero(self):
        return Element.zero(self.system)

    def one(self):
        return Element.one(self.system)

    def scalar(self, c):
        return Element(self.system, {(): self.system.scalar(c)}, normal=True)

    def gen(self, name, exp=1):
        return Element.generator(self.system, name, exp)

    def dgen(self, name):
        return Element.from_word(self.system, [("d" + name, 1)])

    def element(self, factors, coeff=1):
        return Element.from_word(self.system, factors, coeff)

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

    def is_closed(self, x: Element) -> bool:
        return self.d(x).is_zero()

    def normalize(self, x: Element) -> Element:
        if x.system is not self.system:
            raise ValueError("element belongs to a different calculus")
        return Element(self.system, dict(x.terms))

    def degree(self, x: Element) -> int:
        return x.degree()

    # -- rule access -------------------------------------------------------

    def algebra_rules(self):
        return list(self._algebra_rules)

    def form_rules(self):
        return list(self._form_rules)

    def all_relations(self):
        """Every installed rule as (description, lhs element, rhs element)."""
        out = []
        for rule in self.system.rules:
            lhs = Element(self.system, {rule.lhs: self.system.one()}, normal=True)
            rhs = Element(self.system, dict(rule.rhs), normal=True)
            tag = "derived " if rule.derived else ""
            out.append(("%srule %s" % (tag, self.system.word_str(rule.lhs)), lhs, rhs))
        return out
