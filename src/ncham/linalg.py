"""Exact sparse linear algebra over Q or Q(q): int, Fraction or CycScalar.

Vectors are dicts mapping coordinate keys to scalars; a system is a list
of column vectors.  Factoring reduces the columns in order against a
reduced echelon basis of the span of the ones before: a column that
reduces to zero is free and gives a kernel vector, any other adds its
remainder, scaled to 1 at its first key in key order (its pivot key) and
eliminated from the basis vectors already there.  So every basis vector
is 1 at its own pivot key and 0 at the others, and carries its
expression in the pivot columns.  An index from each non-pivot key to
the basis vectors nonzero there names the ones a new pivot changes, so
elimination visits only those and costs what the fill costs, not rank²;
on a diagonal system, such as omega~ on the torus ansatz, the index
stays empty.  Projecting a right-hand side is one pass of the same
reduction over its pivot keys; it yields the coefficients sparse, by
pivot column, and `dense` lists them one entry per column.  Every step
divides exactly; there is no tolerance.  A Fraction 1 serves as the unit
of either field, as Q is a subfield of Q(q); a pivot is scaled by
c ** -1, the inverse in c's own field, except that an int pivot c is
inverted as Fraction(1, c), since c ** -1 is a float.
"""

from __future__ import annotations

from fractions import Fraction

_ONE, _ZERO = Fraction(1), Fraction(0)


def _axpy(target, a, vec):
    """target += a * vec in place, dropping exact zeros."""
    for k, v in vec.items():
        acc = target[k] + a * v if k in target else a * v
        if acc:
            target[k] = acc
        else:
            target.pop(k, None)


class ExactLinearSystem:
    """Reduced echelon basis of a sparse column family, reusable across rhs."""

    def __init__(self, columns):
        self.columns = [dict(c) for c in columns]
        self.keys = sorted({k for c in self.columns for k in c})
        self.pivots = []            # pivot column of each basis vector
        self.echelon = []           # (basis vector, its pivot-column expr)
        self.free_cols = []
        self._kernel = []
        self._basis_at = {}         # pivot key -> index into echelon
        # non-pivot key -> indices of the basis vectors nonzero there
        self._holders = {}
        for j, col in enumerate(self.columns):
            coeffs, rest = self._reduce(col)  # rest = col - sum coeffs_i col_i
            if not rest:
                expr = {i: -c for i, c in coeffs.items()}
                expr[j] = _ONE
                self.free_cols.append(j)
                self._kernel.append(self.dense(expr))
                continue
            key = min(rest)
            piv = rest[key]
            inv = Fraction(1, piv) if isinstance(piv, int) else piv ** -1
            vec = {k: v * inv for k, v in rest.items()}
            # that expression of rest, scaled by inv; the entry at j is inv
            # itself, as 1 * inv would cross from Q into inv's field
            minus_inv = -inv
            expr = {i: c * minus_inv for i, c in coeffs.items()}
            expr[j] = inv
            n = len(self.echelon)
            off_pivot = [k for k in vec if k != key]
            # only the basis vectors nonzero at key change, each on its own
            for i in self._holders.pop(key, ()):
                other, other_expr = self.echelon[i]
                f = other[key]
                _axpy(other, -f, vec)
                _axpy(other_expr, -f, expr)
                for k in off_pivot:
                    self._track(k, i, k in other)
            for k in off_pivot:
                self._track(k, n, True)
            self._basis_at[key] = n
            self.echelon.append((vec, expr))
            self.pivots.append(j)

    def _track(self, key, i, nonzero):
        """Record whether basis vector i is nonzero at non-pivot key."""
        if nonzero:
            self._holders.setdefault(key, set()).add(i)
        else:
            held = self._holders[key]
            held.discard(i)
            if not held:
                del self._holders[key]

    def _reduce(self, vec):
        """(coeffs, rest) with vec = sum coeffs_i columns_i + rest and rest
        zero on every pivot key; coeffs is keyed by pivot column."""
        rest = {k: v for k, v in vec.items() if v}
        coeffs = {}
        # a basis vector is 0 at the other pivot keys, so the value of vec
        # at a pivot key is the coefficient of its basis vector
        for key, f in [(k, v) for k, v in rest.items() if k in self._basis_at]:
            basis, expr = self.echelon[self._basis_at[key]]
            _axpy(rest, -f, basis)
            _axpy(coeffs, f, expr)
        return coeffs, rest

    def nullspace(self):
        """Basis of the kernel of the column family, as coefficient lists:
        for each free column j, e_j minus its expression in the pivot
        columns before it."""
        return [list(vec) for vec in self._kernel]

    def solve(self, rhs):
        """Coefficients c with sum c_j columns_j = rhs, or None.

        Free columns get coefficient zero; the solution is unique exactly
        when the kernel is trivial.
        """
        coeffs, residual = self.project(rhs)
        return None if residual else coeffs

    def residual(self, rhs):
        """rhs minus its projection onto the column span (exact)."""
        return self.project(rhs)[1]

    def project(self, rhs):
        """(coeffs, residual) in one reduction: rhs is in the column span
        exactly when the residual is empty, and then coeffs solve it.
        The residual is rhs - sum c_j columns_j, zero on every pivot key."""
        coeffs, rest = self._reduce(rhs)
        return self.dense(coeffs), rest

    def dense(self, coeffs):
        """The coefficient list, one entry per column, of a dict from column
        to coefficient, such as the sparse coefficients of `_reduce`."""
        dense = [_ZERO] * len(self.columns)
        for i, c in coeffs.items():
            dense[i] = c
        return dense
