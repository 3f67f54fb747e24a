"""The canonical text of every printed sum: the zero of each type, the sign
of the lead term, bare unit coefficients and parenthesized q-sums."""

from fractions import Fraction

import pytest

from ncham.bigraded import BigradedForm
from ncham.matrixcalc import TensorForm
from ncham.models import build_model
from ncham.polynomials import Poly
from ncham.scalars import CycScalar, cyc_zero, q_power


@pytest.fixture(scope="module")
def torus3():
    return build_model("torus:p=3").calculus


@pytest.fixture(scope="module")
def mat2():
    return build_model("matrix:n=2").namespace()


@pytest.fixture(scope="module")
def polymat():
    return build_model("polymat:D=3").namespace()


def test_the_zero_of_every_printed_type_is_0(torus3):
    for zero in (cyc_zero(3), torus3.zero(), TensorForm.zero(2),
                 TensorForm.zero(2, 1), Poly({}), BigradedForm.zero()):
        assert str(zero) == "0"


def test_scalar_sums():
    q = q_power(5, 1)
    assert str(CycScalar(3, [Fraction(-1), Fraction(1)])) == "-1 + q"
    assert str(CycScalar(5, [0, -1, 0, Fraction(2, 3)])) == "-q + 2/3q^3"
    assert str(CycScalar(5, [Fraction(1, 2), 0, 0, -1])) == "1/2 - q^3"
    assert str(-q) == "-q"
    assert str(q * q * Fraction(-3, 2)) == "-3/2q^2"


def test_element_sums(torus3):
    u, v, du = torus3.gen("u"), torus3.gen("v"), torus3.dgen("u")
    q = q_power(3, 1)
    assert str(-(u * v) + 1) == "-u v + 1"
    assert str(-u) == "-u"
    assert str(u * v - 1) == "u v - 1"
    assert str(torus3.one() * -1) == "-1"
    assert str(du * u * Fraction(-2, 3)) == "-2/3 du u"
    assert str(q * u) == "q u"
    assert str(-q * u + v) == "v - q u"
    # q^2 = -1 - q at p = 3: a coefficient of two powers prints whole
    assert str((1 + q) * u) == "(1 + q) u"
    assert str(-(q * q) * v) == "(1 + q) v"
    assert str((1 + q) * u * v - u) == "(1 + q) u v - u"
    assert str(u - (1 + q) * u * v) == "(-1 - q) u v + u"
    assert str(torus3.one() * (1 + q)) == "(1 + q)"


def test_tensor_sums(mat2):
    assert str(-mat2["E12"] + mat2["E21"]) == "-E12 + E21"
    assert str(-mat2["I"]) == "-E11 - E22"
    assert str(mat2["E11"] * 3 - mat2["E22"]) == "3 E11 - E22"
    assert str(mat2["dE12"] * Fraction(-1, 2)) == (
        "-1/2 E11⊗E12 + 1/2 E12⊗E11 + 1/2 E12⊗E22 - 1/2 E22⊗E12")


def test_poly_sums():
    assert str(Poly({(1, 0): -1, (0, 1): 1})) == "y - x"
    assert str(Poly({(0, 0): -1, (2, 1): Fraction(1, 2)})) == "-1 + 1/2 x^2 y"
    assert str(Poly({(1, 1): -1})) == "-x y"
    assert str(Poly({(0, 0): 1})) == "1"
    assert str(Poly({(0, 0): Fraction(-3, 4)})) == "-3/4"


def test_bigraded_sums(polymat):
    x, y, dx = polymat["x"], polymat["y"], polymat["dx"]
    E12, E21 = polymat["E12"], polymat["E21"]
    assert str(-x * E12 + E21) == "-x E12 + E21"
    assert str(-E12) == "-E12"
    assert str(E12 * Fraction(-1, 2)) == "-1/2 E12"
    assert str(-dx * E12 * y + x * x * E21) == "x^2 E21 - y dx E12"
    assert str(polymat["dE12"] * y * -2) == (
        "-2 y E11⊗E12 + 2 y E12⊗E11 + 2 y E12⊗E22 - 2 y E22⊗E12")



def test_a_bigraded_part_prints_its_poly_coefficients(polymat):
    x, y, dx = polymat["x"], polymat["y"], polymat["dx"]
    E12, E21 = polymat["E12"], polymat["E21"]
    part = (x * E12).component(())
    assert str(part) == repr(part) == "x E12"
    part = (-dx * E12 * y + dx * (x * y - polymat["I"]) * E21).component(
        ("x",))
    assert str(part) == "-y E12 - E21 + x y E21"


def test_a_poly_tensor_form_prints_monomial_by_monomial():
    t = TensorForm(2, 1, {(0, 1): Poly({(0, 0): Fraction(-1, 2), (2, 1): 3}),
                          (1, 3): Poly({(0, 1): -1})})
    assert str(t) == repr(t) == "-1/2 E11⊗E12 + 3 x^2 y E11⊗E12 - y E12⊗E22"


def test_the_ad_of_a_mixed_derivation_prints(polymat):
    field = build_model("polymat:D=3").solver.require_field(
        polymat["x"] * polymat["y"] * polymat["I"])
    ad = field._ad()
    assert str(ad) == repr(ad) == "MatrixDerivation(ad(-x E12 + x E21))"
