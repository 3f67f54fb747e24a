"""ExactLinearSystem against sympy, an independent implementation, and
against the elimination that scans every basis vector for each new pivot.

Seeded random sparse systems with dependent columns, zero columns (empty
or with explicit zero entries), an empty column list and right-hand sides
with keys outside the columns, and banded or rank-deficient systems of
about 40 columns, where a new pivot changes several earlier basis
vectors.  Over Fraction, the pivots, the kernel basis and the span test
are recomputed by sympy on the matrix whose rows are the keys in key
order, and the residual must vanish on the pivot keys sympy finds, which
with `rhs - A c` fixes the coefficients and the residual.  Over
CycScalar, which sympy does not model, the same facts are checked through
the identities that define them.  Every system, the solver systems of the
built-in models included, gives the reference elimination's pivots,
echelon, nullspace and projections, and its key index equals the
echelon's nonzero pattern off the pivot keys.  Three of them keep, digit
for digit, the factorization that scaling each pivot c by the division
1 / c gave; the pivots are now scaled by c ** -1.
"""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from ncham.linalg import ExactLinearSystem, _axpy
from ncham.models import build_model
from ncham.scalars import CycScalar, euler_phi

ONE, ZERO = Fraction(1), Fraction(0)


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))


def rand_cyc(p):
    def draw(rng):
        return CycScalar(p, [rand_fraction(rng) if rng.random() < 0.5 else 0
                             for _ in range(euler_phi(p))])
    return draw


def combine(pairs, zero):
    """sum f * vec over (f, vec) pairs, dropping exact zeros."""
    out = {}
    for f, vec in pairs:
        for k, v in vec.items():
            out[k] = out.get(k, zero) + f * v
    return {k: v for k, v in out.items() if v}


def random_system(rng, draw, zero):
    """Columns over keys (0,)..(nkeys,) and right-hand sides, some of them
    in the span and some with keys no column has."""
    nkeys = rng.randint(0, 7)
    columns = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < 0.1:
            columns.append({})
        elif r < 0.15:
            columns.append({(rng.randint(0, nkeys),): zero})
        elif r < 0.4 and columns:
            picks = rng.sample(columns, min(len(columns), 2))
            columns.append(combine([(draw(rng), c) for c in picks], zero))
        else:
            columns.append({(rng.randint(0, nkeys),): draw(rng)
                            for _ in range(rng.randint(1, 4))})
    rhss = [{(rng.randint(0, nkeys + 3),): draw(rng)
             for _ in range(rng.randint(0, 5))} for _ in range(4)]
    rhss.append(combine([(draw(rng), c) for c in columns], zero))
    return columns, rhss


def banded_system(rng, draw, zero, deficient):
    """About 40 columns, each nonzero at a few keys near its own index; a
    deficient system has fewer keys than columns, and some columns combine
    earlier ones."""
    ncols = rng.randint(36, 44)
    width = rng.randint(2, 5)
    spread = 0.6 if deficient else 1.0
    columns = []
    for j in range(ncols):
        if deficient and columns and rng.random() < 0.2:
            picks = rng.sample(columns, min(len(columns), 3))
            columns.append(combine([(draw(rng), c) for c in picks], zero))
        else:
            base = int(j * spread)
            columns.append({(base + rng.randint(0, width),): draw(rng)
                            for _ in range(width)})
    nkeys = int(ncols * spread) + width
    rhss = [{(rng.randint(0, nkeys + 3),): draw(rng)
             for _ in range(rng.randint(0, 5))} for _ in range(2)]
    rhss.append(combine([(draw(rng), c) for c in columns], zero))
    return columns, rhss


class ReferenceElimination:
    """The factor loop that looks up each new pivot key in every basis
    vector, with the same reduction and the same exact arithmetic."""

    def __init__(self, columns):
        self.ncols = len(columns)
        self.pivots, self.free_cols, self.kernel = [], [], []
        self.echelon, self.basis_at = [], {}
        for j, col in enumerate(columns):
            coeffs, rest = self.reduce(col)
            expr = {i: -c for i, c in coeffs.items()}
            expr[j] = ONE
            if not rest:
                self.free_cols.append(j)
                self.kernel.append(self.dense(expr))
                continue
            key = min(rest)
            inv = ONE / rest[key]
            vec = {k: v * inv for k, v in rest.items()}
            expr = {i: c * inv for i, c in expr.items()}
            for other, other_expr in self.echelon:
                f = other.get(key)
                if f:
                    _axpy(other, -f, vec)
                    _axpy(other_expr, -f, expr)
            self.basis_at[key] = len(self.echelon)
            self.echelon.append((vec, expr))
            self.pivots.append(j)

    def reduce(self, vec):
        rest = {k: v for k, v in vec.items() if v}
        coeffs = {}
        for key, f in [(k, v) for k, v in rest.items() if k in self.basis_at]:
            basis, expr = self.echelon[self.basis_at[key]]
            _axpy(rest, -f, basis)
            _axpy(coeffs, f, expr)
        return coeffs, rest

    def dense(self, coeffs):
        return [coeffs.get(i, ZERO) for i in range(self.ncols)]

    def project(self, rhs):
        coeffs, rest = self.reduce(rhs)
        return self.dense(coeffs), rest


def items(echelon):
    """The echelon as item lists, so that key order is compared too."""
    return [(list(vec.items()), list(expr.items())) for vec, expr in echelon]


def check_reference(system, columns, rhss):
    """system agrees with the reference elimination, and its key index is
    the echelon's nonzero pattern off the pivot keys."""
    ref = ReferenceElimination(columns)
    assert system.pivots == ref.pivots
    assert system.free_cols == ref.free_cols
    assert items(system.echelon) == items(ref.echelon)
    assert system.nullspace() == ref.kernel
    for rhs in rhss:
        (coeffs, residual), (ref_coeffs, ref_residual) = \
            system.project(rhs), ref.project(rhs)
        assert coeffs == ref_coeffs
        assert list(residual.items()) == list(ref_residual.items())
    pivot_key = {i: k for k, i in system._basis_at.items()}
    held = {}
    for i, (vec, _) in enumerate(system.echelon):
        assert [k for k in vec if k in system._basis_at] == [pivot_key[i]]
        assert vec[pivot_key[i]] == 1
        for k in vec.keys() - system._basis_at.keys():
            held.setdefault(k, set()).add(i)
    assert system._holders == held


def minus_image(rhs, columns, coeffs, zero):
    """rhs - sum c_j columns_j, dropping exact zeros."""
    return combine([(1, rhs)] + [(-c, col) for c, col in zip(coeffs, columns)],
                   zero)


def check_project(system, columns, rhs, zero):
    coeffs, residual = system.project(rhs)
    assert len(coeffs) == len(columns)
    assert all(not coeffs[j] for j in system.free_cols)
    assert residual == minus_image(rhs, columns, coeffs, zero)
    assert system.residual(rhs) == residual
    assert system.solve(rhs) == (None if residual else coeffs)
    return residual


def to_sympy(rows, columns):
    return sympy.Matrix(len(rows), len(columns), lambda i, j:
                        sympy.Rational(columns[j].get(rows[i], 0)))


def sympy_rank(mat):
    # Matrix.rank can take seconds on a 40-column system; rref does not
    return len(mat.rref()[1])


def from_sympy(vec):
    return [Fraction(int(v.p), int(v.q)) for v in vec]


def check_against_sympy(columns, rhss):
    system = ExactLinearSystem(columns)
    assert system.keys == sorted({k for c in columns for k in c})
    pivot_keys = []
    if not columns:
        assert (system.pivots, system.nullspace()) == ([], [])
    else:
        mat = to_sympy(system.keys, columns)
        assert system.pivots == list(mat.rref()[1])
        assert system.nullspace() == [from_sympy(v)
                                      for v in mat.nullspace()]
        # the pivot keys are the first basis of the pivot columns' rows
        # in key order, and the residual is the one zero on them
        sub = mat.extract(list(range(len(system.keys))), system.pivots)
        pivot_keys = [system.keys[i] for i in sub.T.rref()[1]]
    assert sorted(system.pivots + system.free_cols) == \
        list(range(len(columns)))
    for rhs in rhss:
        residual = check_project(system, columns, rhs, ZERO)
        assert not set(residual) & set(pivot_keys)
        rows = sorted(set(system.keys) | set(rhs))
        rank = sympy_rank(to_sympy(rows, columns)) if columns else 0
        grown = sympy_rank(to_sympy(rows, columns + [rhs]))
        assert (not residual) == (grown == rank)
    check_reference(system, columns, rhss)


@pytest.mark.parametrize("seed", range(4))
def test_fraction_systems_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        check_against_sympy(*random_system(rng, rand_fraction, ZERO))


@pytest.mark.parametrize("deficient", [False, True])
def test_banded_systems_match_sympy(deficient):
    rng = random.Random(int(deficient))
    for _ in range(6):
        columns, rhss = banded_system(rng, rand_fraction, ZERO, deficient)
        check_against_sympy(columns, rhss)


def test_elimination_cancels_an_entry_of_an_earlier_basis_vector():
    # the second pivot, at b, clears c from the first basis vector too, so
    # the index must drop that vector at c
    columns = [{("a",): ONE, ("b",): ONE, ("c",): ONE},
               {("b",): ONE, ("c",): ONE}]
    check_against_sympy(columns, [{("c",): ONE}])
    system = ExactLinearSystem(columns)
    assert system.echelon[0][0] == {("a",): ONE}
    assert system._holders == {("c",): {1}}


def test_int_entries_solve_exactly():
    """An int pivot c is inverted as Fraction(1, c), as c ** -1 is a float:
    over int entries the echelon, its expressions, the kernel and the
    solutions hold ints and Fractions only."""
    system = ExactLinearSystem([{"a": 2, "b": 1}, {"b": 3}, {"a": 4, "b": 2}])
    assert system.echelon == [({"a": 1}, {0: Fraction(1, 2), 1: Fraction(-1, 6)}),
                              ({"b": 1}, {1: Fraction(1, 3)})]
    assert system.nullspace() == [[-2, 0, 1]]
    solution = system.solve({"a": 1, "b": 1})
    assert solution == [Fraction(1, 2), Fraction(1, 6), 0]
    scalars = [c for vec, expr in system.echelon
               for c in [*vec.values(), *expr.values()]]
    scalars += solution + system.nullspace()[0]
    assert all(type(c) in (int, Fraction) for c in scalars)


@pytest.mark.parametrize("desc", ["torus:p=1", "torus:p=2", "torus:p=3",
                                  "torus:p=3,B=8", "matrix:n=2", "matrix:n=3",
                                  "cuntz:n=2", "cuntz:n=3", "polymat:D=3"])
def test_model_solver_systems_match_the_reference(desc):
    model = build_model(desc)
    columns = model.solver._system.columns
    rng = random.Random(desc)
    rhss = [model.backend.d(model.random_form(rng, 0)).coordinates()
            for _ in range(3)]
    rhss.append(model.random_form(rng, 2).coordinates())
    check_reference(ExactLinearSystem(columns), columns, rhss)


def factorization_digest(system):
    """sha256 of the pivots, free columns, echelon (in key order) and kernel,
    each scalar printed with its type."""
    text = repr((system.pivots, system.free_cols,
                 [([(k, type(v).__name__, str(v)) for k, v in vec.items()],
                   [(i, type(c).__name__, str(c)) for i, c in expr.items()])
                  for vec, expr in system.echelon],
                 [[str(c) for c in vec] for vec in system.nullspace()]))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("desc, digest", [
    ("torus:p=3,B=3",
     "f74ca82a59e222e932c37495259b4556ba21142742d369319e7214ea04bb79a0"),
    ("matrix:n=3",
     "cf50684cdcd9b06053afa0b2fa3140da79225f0f33f8e532c33aee60e75a557b"),
    ("polymat:D=3",
     "b27b62c48c582e20537e8c72af22b2ea278b458164816aad75eb9f3692c59d46"),
])
def test_pivot_scaling_keeps_the_factorization(desc, digest):
    """A pivot c is scaled by c ** -1: the factorization is the one that
    scaling by the division 1 / c gave, digits and scalar types alike."""
    model = build_model(desc)
    system = ExactLinearSystem(model.solver._system.columns)
    assert factorization_digest(system) == digest
    for vec, _ in system.echelon:
        for v in vec.values():
            assert v ** -1 == ONE / v and type(v ** -1) is type(ONE / v)
            if isinstance(v, CycScalar):
                with pytest.raises(TypeError):
                    1.0 / v


@pytest.mark.parametrize("p", [3, 5])
def test_cyclotomic_systems_satisfy_the_identities(p):
    rng = random.Random(p)
    one = CycScalar.from_rational(p, 1)
    zero = one - one
    for _ in range(40):
        columns, rhss = random_system(rng, rand_cyc(p), zero)
        system = ExactLinearSystem(columns)
        # a column is a pivot exactly when the columns before it miss it
        for j, col in enumerate(columns):
            before = ExactLinearSystem(columns[:j])
            assert (j in system.pivots) == (before.solve(col) is None)
        kernel = system.nullspace()
        assert len(kernel) == len(system.free_cols)
        for vec, j in zip(kernel, system.free_cols):
            assert [vec[f] for f in system.free_cols] == \
                [one if f == j else zero for f in system.free_cols]
            assert not combine(zip(vec, columns), zero)
        for rhs in rhss:
            check_project(system, columns, rhs, zero)
        for j in system.pivots:
            assert system.solve(columns[j]) == \
                [one if i == j else zero for i in range(len(columns))]
        check_reference(system, columns, rhss)
