"""The universal calculus on M_n as a presented calculus: an oracle for the
tensor backend.

M_n is generated by its matrix units E_ij, and its universal calculus
(Connes, "Non-commutative differential geometry", Publ. IHES 62, 1985) is
presented by the algebra rules E_nn -> 1 - sum_{i<n} E_ii and
E_ij E_kl -> delta_jk E_il, and by their differentials dE_nn ->
-sum_{i<n} dE_ii and E_ij dE_kl -> delta_jk dE_il - dE_ij E_kl, with every
dE below every E in the letter order.  Normal forms are words
dE ... dE E, n^2 (n^2 - 1)^k of them in degree k, the dimension of the
universal Omega^k(M_n).  The evaluation map phi sends a letter to its
TensorForm (the unit, or its d) and a word to the product; the rewriting
engine and the tensor legs share no code, so phi carrying d, lie, iprod,
commutators and Hamiltonian brackets across is an independent check of
`matrixcalc`.
"""

import random
from fractions import Fraction

import pytest

from ncham.algebra import GeneratorSymbol, RuleSpec, check_local_confluence
from ncham.cartan import DerivationSpace, PresentedDerivation, iprod_or_zero
from ncham.forms import CalculusPresentation
from ncham.matrixcalc import (MatrixDerivation, TensorForm,
                              antisymmetric_basis)
from ncham.models import build_matrix
from ncham.symplectic import Backend, HamiltonianSolver, SymplecticForm

NS = (2, 3, 4)


def unit(i, j):
    return "E%d%d" % (i + 1, j + 1)


def matrix_calculus(n):
    """M_n and its universal calculus as rewrite rules over E_ij, dE_ij."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rest = [ij for ij in pairs if ij != (n - 1, n - 1)]
    diagonal = [unit(i, i) for i in range(n - 1)]
    last = unit(n - 1, n - 1)
    algebra = [RuleSpec.make([(last, 1)], [(1, [])]
                             + [(-1, [(e, 1)]) for e in diagonal])]
    forms = [RuleSpec.make([("d" + last, 1)],
                           [(-1, [("d" + e, 1)]) for e in diagonal])]
    for i, j in rest:
        for k, l in rest:
            glued = [(1, [(unit(i, l), 1)])] if j == k else []
            algebra.append(RuleSpec.make([(unit(i, j), 1), (unit(k, l), 1)],
                                         glued))
            forms.append(RuleSpec.make(
                [(unit(i, j), 1), ("d" + unit(k, l), 1)],
                [(1, [("d" + w, 1)]) for _, [(w, _)] in glued]
                + [(-1, [("d" + unit(i, j), 1), (unit(k, l), 1)])]))
    order = ["d" + unit(*ij) for ij in pairs] + [unit(*ij) for ij in pairs]
    return CalculusPresentation([GeneratorSymbol(unit(*ij)) for ij in pairs],
                                algebra, forms, letter_order=order)


class Phi:
    """The evaluation map from the presentation to the tensor backend."""

    def __init__(self, calc, n):
        self.n = n
        self.letters = []
        for lt in calc.system.table.letters:
            i, j = int(lt.base[1]) - 1, int(lt.base[2]) - 1
            e = TensorForm.unit(n, i, j)
            self.letters.append(e.d() if lt.diff else e)

    def __call__(self, x):
        out = None
        for word, c in x.terms.items():
            t = TensorForm.identity(self.n)
            for li in word:
                t = t * self.letters[li]
            t = t.scale(Fraction(c.coeffs[0]))       # p = 1: a rational
            out = t if out is None else out + t
        return TensorForm.zero(self.n) if out is None else out

    def agrees(self, x, t):
        """phi(x) == t; a zero x has no degree, so compare the difference."""
        return (self(x) - t).is_zero()


def presented_ad(calc, n, s):
    """ad_S on the presentation, for an n x n list S of rationals."""
    s_el = calc.zero()
    for i in range(n):
        for j in range(n):
            if s[i][j]:
                s_el = s_el + calc.gen(unit(i, j)) * s[i][j]
    return PresentedDerivation(calc, {
        g.name: s_el * calc.gen(g.name) - calc.gen(g.name) * s_el
        for g in calc.generators})


def random_antisymmetric(rng, n):
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-2, 2))
            s[i][j], s[j][i] = c, -c
    return s


def random_form(rng, calc, n, degree):
    """A nonzero sum of one or two words E dE E ... dE E of the given
    degree; every E is optional and the coefficients are small integers."""
    def letter(d=False):
        return calc.element([(("d" if d else "") + unit(rng.randrange(n),
                                                         rng.randrange(n)), 1)])

    out = calc.zero()
    while out.is_zero():
        for _ in range(rng.randint(1, 2)):
            t = calc.scalar(rng.choice([-2, -1, 1, 2]))
            if rng.random() < 0.5:
                t = t * letter()
            for _ in range(degree):
                t = t * letter(True)
                if rng.random() < 0.3:
                    t = t * letter()
            out = out + t
    return out


@pytest.fixture(scope="module", params=NS)
def setup(request):
    n = request.param
    calc = matrix_calculus(n)
    return n, calc, Phi(calc, n)


def test_local_confluence_pair_counts(setup):
    """2 (n^2 - 1)^3 overlaps, of E E with E E and with E dE: 54, 1,024 and
    6,750 for n = 2, 3 and 4; all joinable, so normal forms are unique."""
    n, calc, _ = setup
    rep = check_local_confluence(calc)
    assert len(rep.pairs) == {2: 54, 3: 1024, 4: 6750}[n]
    assert rep.all_joinable


def test_normal_form_dimensions(setup):
    """dE_ij dE_kl E_mn spans Omega^2 once E_nn and dE_nn are eliminated."""
    n, calc, phi = setup
    gens = [g.name for g in calc.generators]
    words = {w for a in gens for b in gens for c in gens
             for w in (calc.dgen(a) * calc.dgen(b) * calc.gen(c)).terms}
    assert len(words) == n * n * (n * n - 1) ** 2
    assert phi(calc.dgen(gens[-1])) == -sum(
        (TensorForm.unit(n, i, i).d() for i in range(n - 1)),
        TensorForm.zero(n, 1))


def test_phi_carries_d_lie_and_iprod(setup):
    """phi(d x) = d phi(x), phi(L x) = L phi(x) and phi(i x) = i phi(x) on
    40 seeded homogeneous forms, for ad(S) with S a random combination of
    the E_ij - E_ji; the presented derivation passes its consistency
    check."""
    n, calc, phi = setup
    rng = random.Random(100 + n)
    for trial in range(40):
        s = random_antisymmetric(rng, n)
        th, ad = presented_ad(calc, n, s), MatrixDerivation.ad(s)
        x = random_form(rng, calc, n, trial % 3)
        px = phi(x)
        assert phi.agrees(calc.d(x), px.d())
        assert phi.agrees(th.lie(x), ad.lie(px))
        assert phi.agrees(iprod_or_zero(th, x), iprod_or_zero(ad, px))
        y = random_form(rng, calc, n, 1 + trial % 2)
        assert phi.agrees(th.iprod(y), ad.iprod(phi(y)))
    assert not DerivationSpace([th]).inconsistent()


def test_a_sign_flipped_derivation_is_caught(setup):
    """The oracle has teeth: ad(-S) on one side and ad(S) on the other
    disagree on most degree-1 forms."""
    n, calc, phi = setup
    rng = random.Random(7 + n)
    misses = 0
    for _ in range(20):
        s = random_antisymmetric(rng, n)
        minus = [[-v for v in row] for row in s]
        x = random_form(rng, calc, n, 1)
        th, ad = presented_ad(calc, n, minus), MatrixDerivation.ad(s)
        misses += not phi.agrees(th.iprod(x), ad.iprod(phi(x)))
    assert misses >= 10


def test_phi_carries_the_commutator(setup):
    n, calc, phi = setup
    rng = random.Random(200 + n)
    for _ in range(10):
        s, t = random_antisymmetric(rng, n), random_antisymmetric(rng, n)
        comm = presented_ad(calc, n, s).commutator(presented_ad(calc, n, t))
        want = MatrixDerivation.ad(s).commutator(MatrixDerivation.ad(t))
        for g in calc.generators:
            assert phi.agrees(comm.images[g.name],
                              want.apply(phi(calc.gen(g.name))))


def test_solver_kernel_and_brackets_agree(setup):
    """On the ad(E_ij - E_ji) ansatz with omega = 1/2 sum dE_ij dE_ij, the
    presented solver and `matrix:n` have the same omega~ kernel dimension
    and the same brackets of the antisymmetric basis."""
    n, calc, phi = setup
    half = calc.scalar(Fraction(1, 2))
    omega = calc.zero()
    for i in range(n):
        for j in range(n):
            omega = omega + half * calc.dgen(unit(i, j)) * calc.dgen(unit(i, j))
    backend = Backend.presented(calc)
    anti = antisymmetric_basis(n)
    basis = [presented_ad(calc, n, a.to_matrix()) for a in anti]
    solver = HamiltonianSolver(SymplecticForm(backend, omega),
                               DerivationSpace(basis))
    model = build_matrix(n)
    assert phi(omega) == model.omega.omega
    assert (solver.kernel_report().dimension
            == model.solver.kernel_report().dimension == 0)
    elements = [calc.gen(unit(i, j)) - calc.gen(unit(j, i))
                for i in range(n) for j in range(i + 1, n)]
    assert [phi(a) for a in elements] == anti
    for a, pa in zip(elements, anti):
        for b, pb in zip(elements, anti):
            assert phi.agrees(solver.poisson(a, b),
                              model.solver.poisson(pa, pb))
