"""omega_tilde, nonsingularity, the Hamiltonian solver, brackets, flows."""

import random
from fractions import Fraction

import pytest

from ncham.cartan import DerivationSpace, PresentedDerivation
from ncham.matrixcalc import MatrixDerivation, TensorForm
from ncham.symplectic import (HamiltonianSolution, HamiltonianSolver,
                              NotHamiltonian, NotHamiltonianError,
                              SingularFormError, SymplecticForm)


def torus_monomial(calc, a, b, coeff=1):
    return calc.element([("u", a), ("v", b)], coeff)


def in_v_omega(theta, form: SymplecticForm) -> bool:
    """d(theta _| omega) = 0, cross-checked against L_theta(omega) = 0:
    the two agree exactly because omega is closed (Cartan's formula)."""
    backend = form.backend
    via_d = backend.is_zero(backend.d(theta.iprod(form.omega)))
    via_lie = backend.is_zero(theta.lie(form.omega))
    assert via_d == via_lie, "the two membership tests disagree"
    return via_d


def test_omega_tilde_linearity(torus2):
    th1 = torus2.space.basis[3]
    th2 = torus2.space.basis[10]
    om = torus2.omega.omega
    lhs = (th1 + th2).iprod(om)
    assert lhs == th1.iprod(om) + th2.iprod(om)
    zero = 0 * th1
    assert zero.iprod(om).is_zero()


def test_in_v_omega_examples(torus2, matrix2):
    calc = torus2.calculus
    x_a = PresentedDerivation(calc, {
        "u": torus_monomial(calc, 3, 2, 2), "v": torus_monomial(calc, 2, 3, -2)})
    assert in_v_omega(x_a, torus2.omega)

    th = PresentedDerivation(calc, {"u": torus_monomial(calc, 3, 2)})
    assert not in_v_omega(th, torus2.omega)

    s = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    assert in_v_omega(MatrixDerivation.ad(s), matrix2.omega)


def test_nonsingularity(torus2, matrix3, cuntz2, polymat):
    for model in (torus2, matrix3, cuntz2, polymat):
        assert model.solver.kernel_report().nonsingular


def test_zero_form_is_totally_singular(torus2):
    calc = torus2.calculus
    om0 = SymplecticForm(torus2.backend, calc.zero())
    space = DerivationSpace(torus2.space.basis[:5])
    assert space.inconsistent() == []
    solver = HamiltonianSolver(om0, space)
    rep = solver.kernel_report()
    assert rep.dimension == len(space.basis)
    with pytest.raises(SingularFormError):
        solver.solve(calc.gen("u"))


def test_nonclosed_form_rejected(torus2):
    calc = torus2.calculus
    not_closed = calc.gen("u") * calc.dgen("v")   # d(u dv) = du dv != 0
    assert not calc.d(not_closed).is_zero()
    with pytest.raises(ValueError):
        SymplecticForm(torus2.backend, not_closed)


def test_torus_solver_paper_fields(torus2):
    calc = torus2.calculus
    a = torus_monomial(calc, 2, 2)
    sol = torus2.solver.solve(a)
    assert isinstance(sol, HamiltonianSolution)
    assert sol.vector_field.images["u"] == torus_monomial(calc, 3, 2, 2)
    assert sol.vector_field.images["v"] == torus_monomial(calc, 2, 3, -2)

    for bad in [calc.gen("u"), calc.gen("v"),
                calc.gen("u") * calc.gen("v"),
                torus_monomial(calc, 2, 1)]:
        verdict = torus2.solver.solve(bad)
        assert isinstance(verdict, NotHamiltonian)
        assert verdict.residual          # carries the unreachable part of da


def test_verdict_reduces_once(matrix2, monkeypatch):
    """One reduction per right-hand side, whatever the verdict: da of E12
    lies on the columns' keys but outside their span, da of E11 has a key
    no column has."""
    from ncham.exprparse import parse_expression
    from ncham.linalg import ExactLinearSystem

    solver = HamiltonianSolver(matrix2.omega, matrix2.space)
    calls = []
    reduce = ExactLinearSystem._reduce
    monkeypatch.setattr(ExactLinearSystem, "_reduce",
                        lambda self, vec: calls.append(1)
                        or reduce(self, vec))
    for expr, hamiltonian in (("E12", False), ("E11", False),
                              ("E12 - E21", True)):
        del calls[:]
        a = parse_expression(expr, matrix2)
        verdict = solver.solve(a)
        assert (verdict.hamiltonian, len(calls)) == (hamiltonian, 1), expr
        if not hamiltonian:
            rhs = matrix2.backend.d(a).coordinates()
            assert verdict.residual == solver._system.residual(rhs) != {}
            assert solver._system.solve(rhs) is None


def test_solve_reads_the_degree(torus2, matrix2, polymat, monkeypatch):
    """The 0-form test reads the degree and runs no derivation.  A zero
    TensorForm keeps its degree and is refused, even after the zero 0-form,
    whose freeze is the same, was solved; a zero Element or BigradedForm
    has no degree and is accepted."""
    from ncham.bigraded import BigradedForm

    def no_apply(self, x):
        raise AssertionError("apply ran")
    monkeypatch.setattr(MatrixDerivation, "apply", no_apply)
    solver = HamiltonianSolver(matrix2.omega, matrix2.space)
    assert solver.solve(TensorForm.zero(2, 0)).hamiltonian
    with pytest.raises(ValueError, match="a Hamiltonian must be a 0-form"):
        solver.solve(TensorForm.zero(2, 1))
    with pytest.raises(ValueError, match="a Hamiltonian must be a 0-form"):
        solver.flow(TensorForm.zero(2, 1), TensorForm.zero(2, 0), 1)
    with pytest.raises(ValueError, match="transported element"):
        solver.flow(TensorForm.zero(2, 0), TensorForm.zero(2, 1), 0)
    assert torus2.solver.solve(torus2.calculus.zero()).hamiltonian
    assert polymat.solver.solve(BigradedForm.zero()).hamiltonian


def test_poisson_examples(torus2, cuntz2, matrix3, polymat):
    calc = torus2.calculus
    a = torus_monomial(calc, 2, 2)
    b = torus_monomial(calc, 2, 4)
    assert torus2.solver.poisson(a, b) == \
        torus_monomial(calc, 4, 6, -4)

    cc = cuntz2.calculus
    got = cuntz2.solver.poisson(cc.gen("s1") * cc.gen("s2*"),
                                cc.gen("s2") * cc.gen("s1*"))
    want = cc.gen("s1") * cc.gen("s1*") - cc.gen("s2") * cc.gen("s2*")
    assert got == want

    ns = matrix3.namespace()
    s = ns["E12"] - ns["E21"]
    t = ns["E23"] - ns["E32"]
    assert matrix3.solver.poisson(s, t) == ns["E13"] - ns["E31"]

    np_ = polymat.namespace()
    t7 = 2 * (np_["E12"] - np_["E21"])
    r7 = -1 * (np_["E12"] - np_["E21"])
    got = polymat.solver.poisson(t7 + np_["x"], r7 + np_["y"])
    assert got == -1 * np_["I"]


def test_poisson_requires_hamiltonian_inputs(torus2):
    calc = torus2.calculus
    a = torus_monomial(calc, 2, 2)
    with pytest.raises(NotHamiltonianError):
        torus2.solver.poisson(calc.gen("u"), a)
    with pytest.raises(NotHamiltonianError):
        torus2.solver.poisson(a, calc.gen("u"))


def test_flow_examples(torus2):
    calc = torus2.calculus
    b = torus_monomial(calc, 2, 2)
    u = calc.gen("u")
    series = torus2.solver.flow(b, u, 1)
    assert series.coefficient(0) == u
    assert series.coefficient(1) == torus_monomial(calc, 3, 2, 2)

    a = torus_monomial(calc, 2, 4)
    series2 = torus2.solver.flow(b, a, 3)
    assert series2.coefficient(1) == torus2.solver.poisson(b, a)


def test_flow_matches_conjugation_series(matrix2):
    """exp(tS) a exp(-tS) to second order, against plain matrix arithmetic."""
    rng = random.Random(21)
    n = 2
    ns = matrix2.namespace()
    s_form = ns["E12"] - ns["E21"]
    s = s_form.to_matrix()

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for _ in range(10):
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        a_form = TensorForm.from_matrix(a)
        series = matrix2.solver.flow(s_form, a_form, 2)
        sa = mat_mul(s, a)
        as_ = mat_mul(a, s)
        first = [[sa[i][j] - as_[i][j] for j in range(n)] for i in range(n)]
        ssa = mat_mul(s, sa)
        sas = mat_mul(sa, s)
        ass = mat_mul(as_, s)
        second = [[Fraction(1, 2) * (ssa[i][j] - 2 * sas[i][j] + ass[i][j])
                   for j in range(n)] for i in range(n)]
        assert series.coefficient(0) == a_form
        assert series.coefficient(1) == TensorForm.from_matrix(first)
        assert series.coefficient(2) == TensorForm.from_matrix(second)


def test_flow_rejects_non_hamiltonian_generator(torus2):
    calc = torus2.calculus
    with pytest.raises(NotHamiltonianError):
        torus2.solver.flow(calc.gen("u"), calc.gen("v"), 2)
    with pytest.raises(ValueError):
        torus2.solver.flow(torus_monomial(calc, 2, 2), calc.gen("u"), -1)


def test_solver_uniqueness_under_nonsingularity(torus2):
    calc = torus2.calculus
    a = torus_monomial(calc, 2, 2, 3) + torus_monomial(calc, -2, 4, Fraction(1, 2))
    solver = HamiltonianSolver(torus2.omega, torus2.space)
    sol = solver.solve(a)
    assert sol.hamiltonian
    # residual certificate: omega~(X_a) - da = 0 exactly
    residual = sol.vector_field.iprod(torus2.omega.omega) - calc.d(a)
    assert residual.is_zero()
    # linearity of the solve
    sol_u = solver.solve(torus_monomial(calc, 2, 2))
    sol_v = solver.solve(torus_monomial(calc, -2, 4))
    combo = 3 * sol_u.vector_field + Fraction(1, 2) * sol_v.vector_field
    assert combo.coordinates() == sol.vector_field.coordinates()
