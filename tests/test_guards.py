"""Every library guard raises its own exception with its own message."""

import pytest

from ncham.algebra import (GeneratorSymbol, Letter, LetterTable,
                           ReductionBudgetExceeded, RuleSpec)
from ncham.cartan import PresentedDerivation
from ncham.forms import CalculusPresentation
from ncham.matrixcalc import TensorForm
from ncham.models import cuntz_calculus, torus_calculus
from ncham.polynomials import Poly
from ncham.scalars import CycScalar, cyclotomic_polynomial, q_power

T2, T3 = torus_calculus(2), torus_calculus(3)
E2, E3 = TensorForm.unit(2, 0, 1), TensorForm.unit(3, 0, 1)


def _theta(calc):
    return PresentedDerivation(calc, {"u": calc.gen("u")})


def _budgeted_swap():
    """b a -> a b, which rewrites, with a budget of 10 steps."""
    calc = CalculusPresentation(
        [GeneratorSymbol("a"), GeneratorSymbol("b")],
        [RuleSpec.make([("b", 1), ("a", 1)], [(1, [("a", 1), ("b", 1)])])], [])
    calc.system.step_budget = 10
    return calc


GUARDS = [
    ("letter table", ValueError, "duplicate letters in precedence list",
     lambda: LetterTable([Letter("u", 1), Letter("v", 1), Letter("u", 1)])),
    ("scalar order", ValueError, "scalar has wrong cyclotomic order",
     lambda: T2.scalar(q_power(3, 1))),
    ("empty lhs", ValueError, "rule lhs must be a nonempty word",
     lambda: T2.system.add_rule(RuleSpec.make([("u", 0)], []))),
    ("leibniz calculus", ValueError, "element belongs to a different calculus",
     lambda: T2.d(T3.gen("u"))),
    ("element sum", ValueError, "elements belong to different presentations",
     lambda: T2.gen("u") + T3.gen("u")),
    ("unknown generator", KeyError, "unknown generator 'w'",
     lambda: PresentedDerivation(T2, {"w": T2.gen("u")})),
    ("image type", TypeError, "image of u must be an Element",
     lambda: PresentedDerivation(T2, {"u": 1})),
    ("derivation sum", ValueError, "derivations on different calculi",
     lambda: _theta(T2) + _theta(T3)),
    ("commutator", ValueError, "derivations on different calculi",
     lambda: _theta(T2).commutator(_theta(T3))),
    ("to_matrix", ValueError, "only 0-forms convert to matrices",
     lambda: E2.d().to_matrix()),
    ("tensor sum", ValueError, "matrix sizes differ", lambda: E2 + E3),
    ("tensor product", ValueError, "matrix sizes differ", lambda: E2 * E3),
    ("tensor legs", ValueError, "matrix sizes differ", lambda: E2.tensor(E3)),
    ("torus p", ValueError, "p must be >= 1", lambda: torus_calculus(0)),
    ("torus root", ValueError, "root exponent must be coprime to p",
     lambda: torus_calculus(4, 2)),
    ("cuntz n", ValueError, "Cuntz algebra needs n >= 2",
     lambda: cuntz_calculus(1)),
    ("poly division", ZeroDivisionError, "division of a polynomial by zero",
     lambda: Poly.x() / 0),
    ("cyclotomic p", ValueError, "p must be a positive integer",
     lambda: cyclotomic_polynomial(0)),
    ("coefficients", ValueError, "coefficient vector has wrong length for p=3",
     lambda: CycScalar(3, [1])),
    ("differential name", ValueError,
     "generator 'du': generator and differential names must differ",
     lambda: CalculusPresentation(
         [GeneratorSymbol("u"), GeneratorSymbol("du")], [], [])),
    ("budget text", ReductionBudgetExceeded,
     "rewrite budget of 10 steps exceeded reducing " + "b a " * 19
     + "b...; last rule applied: b a -> ...",
     lambda: _budgeted_swap().element([("b", 1), ("a", 1)] * 30)),
]


@pytest.mark.parametrize("exc, message, call", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_raises_its_message(exc, message, call):
    with pytest.raises(exc) as info:
        call()
    assert info.value.args == (message,)
