"""ExactLinearSystem against sympy, an independent implementation.

Seeded random sparse systems with dependent columns, zero columns (empty
or with explicit zero entries), an empty column list and right-hand sides
with keys outside the columns.  Over Fraction, the pivots, the kernel
basis and the span test are recomputed by sympy on the matrix whose rows
are the keys in key order, and the residual must vanish on the pivot keys
sympy finds, which with `rhs - A c` fixes the coefficients and the
residual.  Over CycScalar, which sympy does not model, the same facts are
checked through the identities that define them.
"""

import random
from fractions import Fraction

import pytest
import sympy

from ncham.linalg import ExactLinearSystem
from ncham.scalars import CycScalar, euler_phi


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


def from_sympy(vec):
    return [Fraction(int(v.p), int(v.q)) for v in vec]


@pytest.mark.parametrize("seed", range(4))
def test_fraction_systems_match_sympy(seed):
    rng = random.Random(seed)
    zero = Fraction(0)
    for _ in range(40):
        columns, rhss = random_system(rng, rand_fraction, zero)
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
            residual = check_project(system, columns, rhs, zero)
            assert not set(residual) & set(pivot_keys)
            rows = sorted(set(system.keys) | set(rhs))
            rank = to_sympy(rows, columns).rank() if columns else 0
            grown = to_sympy(rows, columns + [rhs]).rank()
            assert (not residual) == (grown == rank)


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
