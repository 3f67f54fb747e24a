"""Matrix-valued functions on the plane: a graded tensor product calculus.

The algebra is Q[x, y] (x) M_2 with forms
Omega^n = sum over p+q=n of (classical p-forms) (x) (matrix q-forms) and
Koszul signs in the product.  Derivations are triples
(theta_x, theta_y, theta_r) of polynomials: two coefficient functions and
the commutator with the antisymmetric matrix-valued function
theta_S = theta_r (E12 - E21), the form every antisymmetric 2 x 2 matrix
takes.  The 2-form

    omega = dx dy + 1/2 sum dE_ij dE_ij + dx (dE12 - dE21)

couples the translation and rotation parts.  Elements T + f(x,y) I are
Hamiltonian, and their brackets reproduce the classical one times the
identity, the matrix interaction cancelling exactly.

Run:  python demos/poly_matrix.py
"""

from ncham.bigraded import BigradedForm, MixedDerivation
from ncham.models import build_poly_matrix
from ncham.polynomials import Poly

model = build_poly_matrix(3)
ns = model.namespace()
x, y, dx, dy = ns["x"], ns["y"], ns["dx"], ns["dy"]
I2, E12, E21 = ns["I"], ns["E12"], ns["E21"]

print("== the bigraded calculus ==")
print("d(x y I)       =", (x * y).d())
print("d(x E12)       =", (x * E12).d())
print("dx dy          =", dx * dy, "   dy dx =", dy * dx)

omega = model.omega.omega
print("\nomega =", omega)
print("d omega =", omega.d())

print("\n== evaluations of a derivation ==")
th = MixedDerivation(Poly.x() * Poly.y(), Poly.const(1), Poly.x())
print("theta = (x y) d/dx + d/dy + ad(x (E12 - E21))")
print("theta _| dx    =", th.iprod(dx))
print("theta _| dE12  =", th.iprod(E12.d()))
print("theta _| omega =", th.iprod(omega))

print("\n== Hamiltonian elements T + f I ==")
f = Poly.x() ** 2 * Poly.y()
T = 3 * (E12 - E21)
a = T + BigradedForm.scalar(f)
sol = model.solver.solve(a)
print("a = 3(E12 - E21) + x^2 y I")
print("X_a:", sol.vector_field.describe())

g = Poly.y() ** 2
R = -1 * (E12 - E21)
b = R + BigradedForm.scalar(g)
print("\nb = -(E12 - E21) + y^2 I")
print("{a, b}         =", model.solver.poisson(a, b))
print("(f_y g_x - f_x g_y) I =",
      BigradedForm.scalar(f.diff_y() * g.diff_x() - f.diff_x() * g.diff_y()))

print("\n== the simplest interaction: {T + x I, R + y I} = -I ==")
print("result:", model.solver.poisson(T + x, R + y))
