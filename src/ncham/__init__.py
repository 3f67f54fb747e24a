"""Symbolic Hamiltonian dynamics on noncommutative algebras.

Differential calculi are presented by generators and oriented rewrite
rules; derivations stand in for vector fields; a closed 2-form turns
suitable algebra elements into Hamiltonians with vector fields, Poisson
brackets and truncated flows.  Built-in models: the rational
noncommutative torus, the universal calculus on matrix algebras, the
Cuntz algebra, and matrix-valued polynomial functions on the plane.
"""

from .scalars import (CycScalar, Rational, cyc_one, cyc_zero,
                      cyclotomic_polynomial, q_power)
from .algebra import (DegreeError, Element, GeneratorSymbol,
                      ReductionBudgetExceeded, RuleSpec,
                      UnknownGeneratorError, check_local_confluence)
from .forms import CalculusPresentation
from .cartan import (DerivationSpace, PresentedDerivation, check_consistency,
                     classify_torus_derivations, iprod_or_zero)
from .matrixcalc import (MatrixDerivation, TensorForm, antisymmetric_basis,
                         matrix_symplectic_form)
from .polynomials import Poly
from .bigraded import (BigradedForm, MixedDerivation,
                       poly_matrix_symplectic_form)
from .symplectic import (Backend, FlowSeries, HamiltonianSolution,
                         HamiltonianSolver, KernelReport, NotHamiltonian,
                         NotHamiltonianError, SingularFormError,
                         SymplecticForm)
from .models import (ModelDescriptor, UnsoundPresentationError, build_cuntz,
                     build_matrix, build_model, build_poly_matrix, build_torus,
                     cuntz_calculus, theta_h, torus_calculus)
from .exprparse import (ParseError, load_presentation, parse_derivation,
                        parse_expression)

__all__ = [
    "CycScalar", "Rational", "cyc_one", "cyc_zero", "cyclotomic_polynomial",
    "q_power",
    "DegreeError", "Element", "GeneratorSymbol",
    "ReductionBudgetExceeded", "RuleSpec", "UnknownGeneratorError",
    "check_local_confluence",
    "CalculusPresentation",
    "DerivationSpace", "PresentedDerivation", "check_consistency",
    "classify_torus_derivations", "iprod_or_zero",
    "MatrixDerivation", "TensorForm", "antisymmetric_basis",
    "matrix_symplectic_form",
    "Poly", "BigradedForm", "MixedDerivation", "poly_matrix_symplectic_form",
    "Backend", "FlowSeries", "HamiltonianSolution", "HamiltonianSolver",
    "KernelReport", "NotHamiltonian", "NotHamiltonianError",
    "SingularFormError", "SymplecticForm",
    "ModelDescriptor", "UnsoundPresentationError", "build_cuntz",
    "build_matrix", "build_model", "build_poly_matrix", "build_torus",
    "cuntz_calculus", "theta_h", "torus_calculus",
    "ParseError", "load_presentation", "parse_derivation", "parse_expression",
]
