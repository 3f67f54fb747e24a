"""Presentations, rewriting, and the local-confluence checker.

A presentation is a list of generators (some invertible) plus oriented
rules whose right-hand sides are strictly smaller in a degree-
lexicographic order, so rewriting always terminates.  An algebra-only
presentation is a `CalculusPresentation` with no form rules.  Inverse
cancellation is structural, and two-letter swap rules acquire their
inverse-conjugated variants automatically.  The diamond lemma then
reduces well-definedness of normal forms to joinability of finitely
many overlaps, which `check_local_confluence` enumerates.

This demo also shows a presentation file round trip.

Run:  python demos/rewriting.py
"""

import os
import tempfile

from ncham.algebra import GeneratorSymbol, RuleSpec, check_local_confluence
from ncham.exprparse import load_presentation
from ncham.forms import CalculusPresentation
from ncham.models import cuntz_calculus, torus_calculus
from ncham.scalars import q_power

print("== a good presentation: the p=3 torus ==")
calc = torus_calculus(3)
for desc, lhs, rhs, _, _ in calc.system.relations():
    print("   %-28s ->  %s" % (desc.replace("rule ", ""), rhs))
rep = check_local_confluence(calc)
print("critical pairs: %d, all joinable: %s" % (len(rep.pairs),
                                                rep.all_joinable))

print("\n== a bad presentation: two orientations of the same relation ==")
q = q_power(3, 1)
gens = [GeneratorSymbol("v"), GeneratorSymbol("u")]
pres = CalculusPresentation(gens, [
    RuleSpec.make([("u", 1), ("v", 1)], [(q, [("v", 1), ("u", 1)])]),
    RuleSpec.make([("u", 1), ("v", 1)], [(1, [("v", 1), ("u", 1)])]),
], [], p=3, letter_order=["v", "u"])
rep = check_local_confluence(pres)
print(rep.summary(pres.system))

print("\n== the Cuntz rules join in interesting ways ==")
cc = cuntz_calculus(2)
rep = check_local_confluence(cc)
print("critical pairs: %d, all joinable: %s" % (len(rep.pairs),
                                                rep.all_joinable))
s2s2s1 = cc.gen("s2") * cc.gen("s2*") * cc.gen("s1")
print("s2 s2* s1 ->", s2s2s1, "  (both reduction orders agree)")

print("\n== presentation files ==")
text = """\
cyclotomic 2
generator u invertible
generator v invertible
order dv < du < u < v
rule v u -> q^-1 u v
frule u dv -> q dv u
frule v du -> q^-1 du v
frule u du -> du u
frule v dv -> dv v
frule du dv -> -q dv du
frule du du -> 0
frule dv dv -> 0
omega u^-1 du dv v^-1
derivation xa: u -> 2 u^3 v^2, v -> -2 u^2 v^3
"""
with tempfile.NamedTemporaryFile("w", suffix=".pres", delete=False) as fh:
    fh.write(text)
    path = fh.name
model = load_presentation(path)
os.unlink(path)
print("loaded: p = %d, %d generators, omega = %s"
      % (model.calculus.p, len(model.calculus.generators), model.omega.omega))
a = model.calculus.element([("u", 2), ("v", 2)])
print("u^2 v^2 Hamiltonian via the declared ansatz:",
      model.solver.solve(a).hamiltonian)
