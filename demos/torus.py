"""The rational noncommutative torus, end to end.

Generators u, v are invertible with u v = q v u for q a primitive p-th
root of unity.  The calculus adds du, dv with du dv = -q dv du,
u dv = q dv u, v du = q^-1 du v, [u, du] = [v, dv] = 0 and vanishing
squares.  The symplectic form is u^-1 du dv v^-1; with respect to it the
Hamiltonian elements turn out to be exactly the central elements
u^(sp) v^(tp), and their brackets close with the (t s' - t' s) p^2 rule.

Run:  python demos/torus.py
"""

from ncham.algebra import check_local_confluence
from ncham.cartan import PresentedDerivation, check_consistency
from ncham.models import build_torus
from ncham.scalars import q_power

p = 2
model = build_torus(p)
calc = model.calculus
u, v = calc.gen("u"), calc.gen("v")
du, dv = calc.dgen("u"), calc.dgen("v")

print("== the algebra (p = %d, so q = -1) ==" % p)
print("v u            ->", v * u)
print("v^-1 u^2       ->", calc.gen("v", -1) * u * u)
print("[u^2, v]       ->", (u * u).commutator(v), " (u^2 is central)")

print("\n== the calculus ==")
print("u dv           ->", u * dv)
print("du dv + q dv du->", du * dv + q_power(p, 1) * (dv * du))
print("d(u dv)        ->", calc.d(u * dv))
print("d(u^-1)        ->", calc.d(calc.gen("u", -1)))

rep = check_local_confluence(calc)
print("\nlocal confluence:", "all %d critical pairs joinable" % len(rep.pairs)
      if rep.all_joinable else rep.summary(calc.system))

omega = model.omega.omega
print("\n== the symplectic form ==")
print("omega          =", omega)
print("d omega        =", calc.d(omega))

print("\n== derivations consistent with the calculus ==")
good = PresentedDerivation(calc, {"u": calc.element([("u", 3), ("v", 2)]),
                                  "v": calc.element([("u", 2), ("v", 3)])})
bad = PresentedDerivation(calc, {"u": u * u})
print("theta(u)=u^3 v^2, theta(v)=u^2 v^3 :",
      "consistent" if check_consistency(good).ok else "inconsistent")
print("theta(u)=u^2,     theta(v)=0       :",
      "consistent" if check_consistency(bad).ok else "inconsistent")

print("\n== Hamiltonian elements ==")
for expr in ["u^2 v^2", "u", "u v", "u^2 v"]:
    from ncham.exprparse import parse_expression

    a = parse_expression(expr, model)
    sol = model.solver.solve(a)
    if sol.hamiltonian:
        images = sol.vector_field.describe()
        print("%-8s Hamiltonian, X: %s" % (expr, images))
    else:
        print("%-8s not Hamiltonian relative to the ansatz" % expr)

print("\n== brackets and flows ==")
a = calc.element([("u", 2), ("v", 2)])
b = calc.element([("u", 2), ("v", 4)])
print("{u^2 v^2, u^2 v^4} =", model.solver.poisson(a, b))
print("flow of u under u^2 v^2, order 3:")
print("   ", model.solver.flow(a, u, 3))
