"""The tensor-product calculus on Q[x,y] (x) M_2 and its derivations."""

import random
from fractions import Fraction

import pytest

from ncham.algebra import DegreeError
from ncham.bigraded import (BigradedForm, MixedDerivation,
                            poly_matrix_symplectic_form, wedge)
from ncham.matrixcalc import TensorForm
from ncham.polynomials import P_ONE, Poly


def rand_poly(rng, d=2):
    return Poly({(i, j): Fraction(rng.randint(-2, 2))
                 for i in range(d + 1) for j in range(d + 1 - i)})


def rand_mixed(rng):
    g = rand_poly(rng, 2)
    return MixedDerivation(rand_poly(rng, 2), rand_poly(rng, 2), g)


def rand_zero_form(rng):
    return BigradedForm.from_matrix(
        [[rand_poly(rng, 1) for _ in range(2)] for _ in range(2)])


def rand_form(rng, deg):
    f = rand_zero_form(rng)
    for _ in range(deg):
        choice = rng.randrange(3)
        if choice == 0:
            f = f * BigradedForm.classical(("x",), rand_poly(rng, 1))
        elif choice == 1:
            f = f * BigradedForm.classical(("y",), rand_poly(rng, 1))
        else:
            f = f * rand_zero_form(rng).d()
    return f


def test_polynomials():
    x, y = Poly.x(), Poly.y()
    f = x * x * y - 2 * y + 1
    assert f.diff_x() == 2 * x * y
    assert f.diff_y() == x * x - 2
    assert (x + y) * (x - y) == x * x - y * y
    assert f.degree() == 3
    assert str(x * x * y - 2 * y) == "-2 y + x^2 y"


def insertion_wedge(a, b):
    """The wedge a ^ b by inserting each letter of b into a, one sign flip
    per swap, or None when a letter repeats."""
    letters = list(a) + list(b)
    if len(set(letters)) != len(letters):
        return None
    sign, out = 1, list(a)
    for lt in b:
        pos = len(out)
        out.append(lt)
        while pos > 0 and out[pos - 1] > out[pos]:
            out[pos - 1], out[pos] = out[pos], out[pos - 1]
            sign = -sign
            pos -= 1
    return sign, tuple(out)


def test_wedge_signs():
    assert wedge((), ("x",)) == (1, ("x",))
    assert wedge(("x",), ("y",)) == (1, ("x", "y"))
    assert wedge(("y",), ("x",)) == (-1, ("x", "y"))
    assert wedge(("x",), ("x",)) is None
    symbols = [(), ("x",), ("y",), ("x", "y")]
    for a in symbols:
        for b in symbols:
            assert wedge(a, b) == insertion_wedge(a, b), (a, b)


def test_classical_anticommutation():
    dx = BigradedForm.classical(("x",))
    dy = BigradedForm.classical(("y",))
    assert dx * dy == -(dy * dx)
    assert (dx * dx).is_zero()


def test_omega_structure():
    om = poly_matrix_symplectic_form()
    assert om.degree() == 2
    assert sorted((len(c), t.degree) for c, t in om.parts.items()) == [
        (0, 2), (1, 1), (2, 0)]
    assert om.d().is_zero()
    # d and L differentiate every coefficient, so each one is a Poly
    assert all(isinstance(v, Poly)
               for t in om.parts.values() for v in t.terms.values())


def test_paper_interior_product_display():
    """theta _| omega = theta_x dy - theta_y dx
       + d_mat(theta_S + theta_x (E12 - E21))."""
    om = poly_matrix_symplectic_form()
    rng = random.Random(5)
    for _ in range(15):
        th = rand_mixed(rng)
        g = th.theta_r + th.theta_x
        inner = [[Poly(), g], [-g, Poly()]]
        expected = (BigradedForm.classical(("y",), th.theta_x)
                    - BigradedForm.classical(("x",), th.theta_y)
                    + BigradedForm({(): TensorForm.from_matrix(inner).d()}))
        assert th.iprod(om) == expected


def test_interaction_term_vanishing():
    """[theta_S, E12 - E21] = 0: antisymmetric 2x2 matrices commute."""
    rng = random.Random(6)
    j_mat = [[Poly(), P_ONE], [-P_ONE, Poly()]]
    for _ in range(10):
        g = rand_poly(rng, 2)
        th = MixedDerivation(0, 0, g)
        bracket = th._ad().apply(TensorForm.from_matrix(j_mat))
        assert bracket.is_zero()


def test_hamiltonian_fields_displayed_form():
    om = poly_matrix_symplectic_form()
    x, y = Poly.x(), Poly.y()
    f = x * x * y + 3 * y
    t_const = Fraction(5)
    a = (BigradedForm.from_matrix([[0, t_const], [-t_const, 0]])
         + BigradedForm.scalar(f))
    fy = f.diff_y()
    g = Poly.const(t_const) - fy
    x_a = MixedDerivation(fy, -f.diff_x(), g)
    assert x_a.iprod(om) == a.d()


def test_commutator_matches_composition():
    rng = random.Random(7)
    for _ in range(15):
        t, s = rand_mixed(rng), rand_mixed(rng)
        a = rand_zero_form(rng)
        assert t.commutator(s).apply(a) == t.apply(s.apply(a)) - s.apply(t.apply(a))


def test_cartan_props_bigraded():
    rng = random.Random(8)
    for _ in range(30):
        t, s = rand_mixed(rng), rand_mixed(rng)
        deg = rng.randint(1, 2)
        f = rand_form(rng, deg)
        assert t.iprod(f).d() + t.iprod(f.d()) == t.lie(f)
        assert t.lie(f).d() == t.lie(f.d())
        assert s.lie(t.iprod(f)) == t.iprod(s.lie(f)) + s.commutator(t).iprod(f)
        if deg >= 2:
            assert s.iprod(t.iprod(f)) == -t.iprod(s.iprod(f))
        assert t.lie(s.lie(f)) - s.lie(t.lie(f)) == t.commutator(s).lie(f)


def test_graded_leibniz_bigraded():
    rng = random.Random(9)
    for _ in range(15):
        f = rand_form(rng, 1)
        g = rand_form(rng, rng.randint(0, 1))
        assert (f * g).d() == f.d() * g - f * g.d()


def test_iprod_of_a_0_form_is_a_degree_error():
    th = MixedDerivation(Poly.x(), 0)
    with pytest.raises(DegreeError):
        th.iprod(BigradedForm.scalar(Poly.x()))


def wedge_lie(th, x):
    """Reference Lie derivative: each classical letter is replaced through
    two wedge products and their signs, and the bidegree leakage of theta_S
    is summed junction by junction."""
    dtheta = {"x": (th.theta_x.diff_x(), th.theta_x.diff_y()),
              "y": (th.theta_y.diff_x(), th.theta_y.diff_y())}
    g = th.theta_r
    ds = [(var, [[0, dg], [-dg, 0]])
          for var, dg in (("x", g.diff_x()), ("y", g.diff_y())) if dg]
    out = BigradedForm()
    for csym, t in x.parts.items():
        for j, var in enumerate(csym):
            for repl, coeff in zip(("x", "y"), dtheta[var]):
                w = wedge(csym[:j], (repl,))
                w2 = w and wedge(w[1], csym[j + 1:])
                if coeff and w2:
                    out = out + BigradedForm(
                        {w2[1]: t.scale(coeff * w[0] * w2[0])})
        out = out + BigradedForm(
            {csym: th._scalar_transport(t) + th._ad().lie(t)})
        for var, dS in ds:
            w = wedge(csym, (var,))
            if w and t.degree:
                acc = TensorForm.zero(2, t.degree - 1)
                for j, ins in enumerate(t.contract_junctions(dS)):
                    acc = acc + (ins if j % 2 == 0 else -ins)
                out = out + BigradedForm({w[1]: acc.scale(w[0])})
    return out


def test_lie_replaces_classical_letters_in_place():
    """L agrees with the two-wedge reference on forms carrying all four
    classical symbols 1, dx, dy and dx dy."""
    rng = random.Random(42)
    dx = BigradedForm.classical(("x",))
    dy = BigradedForm.classical(("y",))
    for _ in range(10):
        a, b, c = (rand_zero_form(rng) for _ in range(3))
        x = a * b.d() * c.d() + a * dx * b.d() + b * dy * c.d() + c * dx * dy
        if rng.randint(0, 1):
            x = x * rand_zero_form(rng).d()
        assert sorted(x.parts) == [(), ("x",), ("x", "y"), ("y",)]
        th = rand_mixed(rng)
        assert th.lie(x) == wedge_lie(th, x)


def test_polymat_namespace_lifts_the_m2_units():
    """I, E_ij and dE_ij of polymat are M_2's, lifted: equal to the former
    constructions over Poly scalars, and Poly throughout."""
    from ncham.models import build_model

    ns = build_model("polymat:D=3").namespace()
    names = ["I"]
    former = {"I": BigradedForm({(): TensorForm.identity(2).scale(P_ONE)})}
    for i in range(2):
        for j in range(2):
            unit = [[Poly.const(int((r, c) == (i, j))) for c in range(2)]
                    for r in range(2)]
            e = BigradedForm({(): TensorForm.from_matrix(unit)})
            former["E%d%d" % (i + 1, j + 1)] = e
            former["dE%d%d" % (i + 1, j + 1)] = e.d()
            names += ["E%d%d" % (i + 1, j + 1), "dE%d%d" % (i + 1, j + 1)]
    assert len(names) == 9
    for name in names:
        assert ns[name] == former[name], name
        assert all(type(v) is Poly for t in ns[name].parts.values()
                   for v in t.terms.values())
    assert ns["I"] == BigradedForm.from_matrix([[1, 0], [0, 1]])


def test_in_kernel_on_a_form_and_on_a_non_form():
    """Two of dE12's four legs are no forms on their own, but their sum is."""
    from ncham.exprparse import ExpressionParser
    from ncham.models import build_model

    model = build_model("polymat:D=3")
    ns = model.namespace()
    de12 = ns["dE12"]
    assert de12.in_kernel() and (ns["x"] * ns["E12"] * de12).in_kernel()
    legs = [BigradedForm({(): TensorForm(2, 1, {k: c})})
            for k, c in de12.parts[()].terms.items()]
    # E11⊗E12 and -E12⊗E22 contract to nonzero matrices
    assert len(legs) == 4 and sum(not leg.in_kernel() for leg in legs) == 2
    non_form = ns["E12"].tensor(ns["E21"])
    assert not non_form.in_kernel()
    assert BigradedForm().in_kernel()
    parser = ExpressionParser(ns, None)
    assert parser.parse("E11 ⊗ E12 + E22 ⊗ E12 - E12 ⊗ E11 - E12 ⊗ E22") == de12
