"""The universal calculus on M_n: tensor legs, d, products, derivations."""

import itertools
import random
from fractions import Fraction

import pytest

from ncham.algebra import DegreeError
from ncham.bigraded import MixedDerivation
from ncham.cartan import iprod_or_zero
from ncham.matrixcalc import (MatrixDerivation, TensorForm,
                              antisymmetric_basis, matrix_symplectic_form)
from ncham.models import build_model
from ncham.polynomials import Poly
from ncham.symplectic import HamiltonianSolver, SymplecticForm


def units(n):
    return [TensorForm.unit(n, i, j) for i in range(n) for j in range(n)]


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def mat_sub(a, b):
    n = len(a)
    return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]


def commutator_oracle(s, c):
    return mat_sub(mat_mul(s, c), mat_mul(c, s))


def rand_matrix(rng, n):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]


def test_d_formulas():
    e12 = TensorForm.unit(2, 0, 1)
    # dE12 = 1 x E12 - E12 x 1 with 1 = E11 + E22
    assert e12.d() == TensorForm(2, 1, {
        (0, 1): Fraction(1), (3, 1): Fraction(1),
        (1, 0): Fraction(-1), (1, 3): Fraction(-1)})
    # d(a x b) = 1 x a x b - a x 1 x b + a x b x 1 on a sample
    x = TensorForm(2, 1, {(0, 3): Fraction(1)})   # E11 x E22 (kernel: E11E22=0)
    dx = x.d()
    expected = {}
    for i in range(2):
        expected[(i * 3, 0, 3)] = expected.get((i * 3, 0, 3), 0) + 1
        expected[(0, i * 3, 3)] = expected.get((0, i * 3, 3), 0) - 1
        expected[(0, 3, i * 3)] = expected.get((0, 3, i * 3), 0) + 1
    assert dx.terms == {k: Fraction(v) for k, v in expected.items() if v}
    assert e12.d().d().is_zero()


def test_kernel_invariants():
    rng = random.Random(8)
    for n in (2, 3):
        for _ in range(25):
            a = TensorForm.from_matrix(rand_matrix(rng, n))
            b = TensorForm.from_matrix(rand_matrix(rng, n))
            x = a.d() * b.d()
            assert x.in_kernel()
            assert a.d().in_kernel()
            th = MatrixDerivation.ad(rand_matrix(rng, n))
            assert th.lie(x).in_kernel()
            assert th.iprod(x).in_kernel()
            assert x.d().in_kernel()


def test_contract_junctions_inserts_the_matrix():
    e11_e22 = TensorForm(2, 1, {(0, 3): Fraction(1)})
    p = [[Fraction(0), Fraction(2)], [Fraction(0), Fraction(0)]]
    # E11 P E22 = 2 E12
    assert e11_e22.contract_junctions(p) == [
        TensorForm(2, 0, {(1,): Fraction(2)})]
    assert e11_e22.in_kernel()                       # E11 E22 = 0
    assert not TensorForm(2, 1, {(1, 2): Fraction(1)}).in_kernel()  # E12 E21


def test_mul_against_leibniz_expansion_oracle():
    """a db c dd = a d(bc) dd - ab dc dd over all unit quadruples, n=2."""
    for a, b, c, d in itertools.product(units(2), repeat=4):
        lhs = a * b.d() * c * d.d()
        rhs = a * (b * c).d() * d.d() - (a * b) * c.d() * d.d()
        assert lhs == rhs


def test_mul_unit_and_degree2_kernel():
    e12, e21 = TensorForm.unit(2, 0, 1), TensorForm.unit(2, 1, 0)
    prod = e12.d() * e21.d()
    assert prod.degree() == 2 and prod.in_kernel()
    x = e12.d()
    assert x * TensorForm.identity(2) == x


def test_iprod_examples():
    n = 2
    s = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    ad_s = MatrixDerivation.ad(s)
    e11 = TensorForm.unit(n, 0, 0)
    got = ad_s.iprod(e11.d())
    expected = TensorForm(n, 0, {(1,): Fraction(-1), (2,): Fraction(-1)})
    assert got == expected                      # [S, E11] = -(E12 + E21)

    omega = matrix_symplectic_form(n)
    s_form = TensorForm.from_matrix(s)
    assert ad_s.iprod(omega) == s_form.d()      # 1 x S - S x 1
    assert MatrixDerivation.zero(n).iprod(omega).is_zero()
    with pytest.raises(DegreeError):
        ad_s.iprod(e11)


def test_iprod_omega_antisymmetric_all_n():
    for n in (2, 3, 4):
        omega = matrix_symplectic_form(n)
        assert omega.d().is_zero()
        for s_form in antisymmetric_basis(n):
            ad_s = MatrixDerivation.ad(s_form.to_matrix())
            assert ad_s.iprod(omega) == s_form.d()


def test_lie_examples():
    n = 2
    rng = random.Random(12)
    omega = matrix_symplectic_form(n)
    for _ in range(10):
        m = rand_matrix(rng, n)
        s = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
        ad_s = MatrixDerivation.ad(s)
        e11 = TensorForm.unit(n, 0, 0)
        assert ad_s.lie(e11.d()) == ad_s.apply(e11).d()   # dL = Ld on exact
        assert ad_s.lie(omega).is_zero()
    assert MatrixDerivation.zero(n).lie(omega).is_zero()


def test_ad_commutators_match_oracle():
    rng = random.Random(44)
    for n in (2, 3):
        for _ in range(10):
            s, t = rand_matrix(rng, n), rand_matrix(rng, n)
            lhs = MatrixDerivation.ad(s).commutator(MatrixDerivation.ad(t))
            rhs = MatrixDerivation.ad(commutator_oracle(s, t))
            assert lhs.coordinates() == rhs.coordinates()


def test_ad_is_blind_to_multiples_of_the_identity():
    """ad(S + cI) = ad(S) in coordinates, description and action, because
    the stored S is traceless; so ad(cI) is zero."""
    rng = random.Random(18)
    for n in (2, 3, 4):
        for _ in range(10):
            s = rand_matrix(rng, n)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            scalar = [[c if i == j else 0 for j in range(n)] for i in range(n)]
            ad_s = MatrixDerivation.ad(s)
            shifted = MatrixDerivation.ad(
                [[s[i][j] + scalar[i][j] for j in range(n)] for i in range(n)])
            assert shifted.coordinates() == ad_s.coordinates()
            assert shifted.describe() == ad_s.describe()
            x = TensorForm.from_matrix(rand_matrix(rng, n)) \
                * TensorForm.from_matrix(rand_matrix(rng, n)).d()
            assert shifted.lie(x) == ad_s.lie(x)
            assert shifted.iprod(x) == ad_s.iprod(x)
            assert MatrixDerivation.ad(scalar).is_zero()


def unit_images(theta):
    n = theta.n
    return [TensorForm(n, 0, {(o,): v for o, v in theta.apply_unit(f).items()})
            for f in range(n * n)]


def unit_matrices(n):
    return [[[1 if (a, b) == divmod(f, n) else 0 for b in range(n)]
             for a in range(n)] for f in range(n * n)]


def test_apply_unit_matches_matrix_products():
    """[S, E_ij] read off S equals the explicit SE - ES, over Fractions and
    over polynomial entries (through a mixed derivation's ad part)."""
    rng = random.Random(19)
    for n in (2, 3, 4):
        for _ in range(10):
            s = rand_matrix(rng, n)
            images = unit_images(MatrixDerivation.ad(s))
            assert images == [TensorForm.from_matrix(commutator_oracle(s, e))
                              for e in unit_matrices(n)]
            assert all(all(img.terms.values()) for img in images)
    for _ in range(10):
        g = Poly({(rng.randint(0, 2), rng.randint(0, 2)):
                  Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(2)})
        s = [[Poly(), g], [-g, Poly()]]
        images = unit_images(MixedDerivation(0, 0, g)._ad())
        assert images == [TensorForm.from_matrix(commutator_oracle(s, e))
                          for e in unit_matrices(2)]


def test_cartan_props_universal():
    rng = random.Random(3)
    n = 2
    for _ in range(40):
        def sparse(rng):
            m = [[Fraction(0)] * n for _ in range(n)]
            for _ in range(2):
                m[rng.randrange(n)][rng.randrange(n)] = Fraction(
                    rng.randint(-2, 2))
            return m

        th = MatrixDerivation.ad(sparse(rng))
        ph = MatrixDerivation.ad(sparse(rng))
        x = TensorForm.from_matrix(sparse(rng))
        for _ in range(rng.randint(1, 2)):
            x = x * TensorForm.from_matrix(sparse(rng)).d()
        assert th.iprod(x).d() + th.iprod(x.d()) == th.lie(x)
        assert th.lie(x).d() == th.lie(x.d())
        assert ph.lie(th.iprod(x)) == th.iprod(ph.lie(x)) \
            + ph.commutator(th).iprod(x)
        if x.degree() >= 2:
            assert ph.iprod(th.iprod(x)) == -th.iprod(ph.iprod(x))
        assert th.lie(ph.lie(x)) - ph.lie(th.lie(x)) \
            == th.commutator(ph).lie(x)


def legwise_iprod(theta, x):
    """Reference interior product: ad_S contracted into leg j and merged
    left, sum_j (-1)^(j-1) a_(j-1) [S, a_j], one leg at a time."""
    n = x.n
    out = {}
    for key, c in x.terms.items():
        for j in range(1, len(key)):
            sign = c if (j - 1) % 2 == 0 else -c
            li, lj = divmod(key[j - 1], n)
            for o, v in theta.apply_unit(key[j]).items():
                oi, oj = divmod(o, n)
                if lj == oi:
                    nk = key[:j - 1] + (li * n + oj,) + key[j + 1:]
                    out[nk] = out[nk] + sign * v if nk in out else sign * v
    return TensorForm(n, x.degree() - 1, out)


def random_form(rng, n, degree):
    """a0 da1 ... da_k plus a second such term, dense random matrices."""
    out = TensorForm.zero(n, degree)
    for _ in range(2):
        t = TensorForm.from_matrix(rand_matrix(rng, n))
        for _ in range(degree):
            t = t * TensorForm.from_matrix(rand_matrix(rng, n)).d()
        out = out + t
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iprod_is_the_legwise_contraction(n):
    """S contracted at each junction equals the leg-wise a_(j-1) [S, a_j]
    on forms of degree 1 to 3 over Fractions."""
    rng = random.Random(30 + n)
    for trial in range(12 if n < 4 else 6):
        degree = 1 + trial % (3 if n < 4 else 2)
        x = random_form(rng, n, degree)
        assert not x.is_zero()
        th = MatrixDerivation.ad(rand_matrix(rng, n))
        assert th.iprod(x) == legwise_iprod(th, x)


def test_polymat_iprod_is_the_legwise_contraction():
    """ad(g (E12 - E21)) over Poly, on forms with polynomial entries as in
    the matrix parts of polymat."""
    rng = random.Random(32)

    def poly():
        return Poly({(rng.randint(0, 2), rng.randint(0, 2)):
                     Fraction(rng.randint(-2, 2)) for _ in range(2)})

    def poly_matrix():
        return TensorForm.from_matrix([[poly(), poly()], [poly(), poly()]])

    for trial in range(12):
        x = poly_matrix()
        for _ in range(1 + trial % 3):
            x = x * poly_matrix().d()
        th = MixedDerivation(0, 0, poly())._ad()
        assert th.iprod(x) == legwise_iprod(th, x)


def test_contract_alternating_sums_the_junctions():
    """sum_j (-1)^(j-1) of the junction contractions, on a 2-form."""
    rng = random.Random(31)
    x = random_form(rng, 3, 2)
    p = rand_matrix(rng, 3)
    first, second = x.contract_junctions(p)
    assert x.contract_alternating(p) == first - second


def boxed(x):
    """x with every coefficient a Fraction; the constructors take the dict
    as given, where `from_matrix` and `scale` would store ints."""
    if isinstance(x, MatrixDerivation):
        return MatrixDerivation(boxed(x.s))
    return TensorForm(x.n, x.degree(),
                      {k: Fraction(c) for k, c in x.terms.items()})


def coefficient_types(x):
    if isinstance(x, (MatrixDerivation, TensorForm)):
        return {type(c) for c in x.coordinates().values()}
    return {t for part in x for t in coefficient_types(part)}


CALCULUS = [
    lambda x, y, th, ph: x.d(),
    lambda x, y, th, ph: x * y - y * x,
    lambda x, y, th, ph: iprod_or_zero(th, x),
    lambda x, y, th, ph: th.lie(x),
    lambda x, y, th, ph: th.commutator(ph).s,
]


def hamiltonian(solver, a, b):
    """solve, poisson and flow of the 0-forms a and b."""
    return [solver.solve(a).vector_field.s, solver.poisson(a, b),
            solver.flow(b, a, 3).coefficients]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_coefficients_compute_in_ints(n):
    """The M_n backend is exact and blind to the scalar type: seeded int
    inputs and the same values boxed as Fractions give equal results, the
    int inputs' calculus stays in ints, and no coefficient is a float,
    also where the solver of the int form 2 omega inverts int pivots."""
    model, fresh = build_model("matrix:n=%d" % n), build_model("matrix:n=%d" % n)
    two_omega = TensorForm(n, 2, {k: int(2 * c) for k, c in
                                  matrix_symplectic_form(n).terms.items()})
    solvers = [(model.solver, fresh.solver)] + [
        tuple(HamiltonianSolver(SymplecticForm(model.backend, om), model.space)
              for om in (two_omega, boxed(two_omega)))]
    rng = random.Random(40 + n)
    for _ in range(4):
        x, y = model.random_form(rng, 2), model.random_form(rng, 2)
        th, ph = model.random_derivation(rng), model.random_derivation(rng)
        assert coefficient_types([x, y, th.s, ph.s]) == {int}
        for op in CALCULUS:
            out = op(x, y, th, ph)
            assert out == op(boxed(x), boxed(y), boxed(th), boxed(ph))
            assert coefficient_types(out) <= {int}
        # antisymmetric, so Hamiltonian; the 1/2 of omega brings Fractions
        a, b = th.s, model.random_derivation(rng).s
        for ints, fractions in solvers:
            out = hamiltonian(ints, a, b)
            assert out == hamiltonian(fractions, boxed(a), boxed(b))
            assert coefficient_types(out) <= {int, Fraction}
