"""Exact sparse linear algebra over a field (Fraction or CycScalar).

Vectors are dicts mapping coordinate keys to scalars; a system is a list
of column vectors.  Elimination is plain Gauss-Jordan with deterministic
pivoting (first nonzero entry in key order), which is exact over a field;
no fraction-free tricks are needed because the scalars divide exactly.
"""

from __future__ import annotations


class ExactLinearSystem:
    """RREF factorization of a sparse column family, reusable across rhs."""

    def __init__(self, columns, one):
        self.columns = [dict(c) for c in columns]
        self.one = one
        self.zero = one - one
        keys = set()
        for c in self.columns:
            keys.update(c)
        self.keys = sorted(keys)
        self.key_index = {k: i for i, k in enumerate(self.keys)}
        self._factor()

    def _factor(self):
        ncols = len(self.columns)
        rows = []
        for ki, key in enumerate(self.keys):
            row = {}
            for j, col in enumerate(self.columns):
                v = col.get(key)
                if v:
                    row[j] = v
            rows.append((row, {ki: self.one}))
        # forward + backward elimination; trans carries the row operations
        self.pivots = []            # (row_storage_index, pivot_col)
        self.echelon = []           # list of (row dict, trans dict)
        used_cols = set()
        for col in range(ncols):
            pivot = None
            for idx, (row, trans) in enumerate(rows):
                if row.get(col):
                    pivot = idx
                    break
            if pivot is None:
                continue
            row, trans = rows.pop(pivot)
            inv = self.one / row[col]
            row = {c: v * inv for c, v in row.items()}
            trans = {k: v * inv for k, v in trans.items()}
            for other_row, other_trans in rows + [e for e in self.echelon]:
                f = other_row.get(col)
                if not f:
                    continue
                for c, v in row.items():
                    acc = other_row.get(c, self.zero) - f * v
                    if acc:
                        other_row[c] = acc
                    elif c in other_row:
                        del other_row[c]
                for k, v in trans.items():
                    acc = other_trans.get(k, self.zero) - f * v
                    if acc:
                        other_trans[k] = acc
                    elif k in other_trans:
                        del other_trans[k]
            self.echelon.append((row, trans))
            self.pivots.append(col)
            used_cols.add(col)
        self.free_cols = [c for c in range(ncols) if c not in used_cols]
        # every remaining row is zero: each column either had a pivot that
        # eliminated it everywhere else, or was zero in all remaining rows
        assert all(not row for row, _ in rows)

    def nullspace(self):
        """Basis of the kernel of the column family, as coefficient lists."""
        basis = []
        for fc in self.free_cols:
            vec = [self.zero] * len(self.columns)
            vec[fc] = self.one
            for (row, _), pc in zip(self.echelon, self.pivots):
                v = row.get(fc)
                if v:
                    vec[pc] = -v
            basis.append(vec)
        return basis

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
        """(coeffs, residual) in one back-substitution: rhs is in the
        column span exactly when the residual is empty, and then coeffs
        solve it."""
        rhs = {k: v for k, v in rhs.items() if v}
        coeffs = self._back_substitute(rhs)
        # exact residual check covers the inconsistent rows
        return coeffs, self._subtract_span(rhs, coeffs)

    def _back_substitute(self, rhs):
        """Pivot coefficients from the recorded row operations; free
        columns get zero and keys outside the columns are ignored."""
        y = {self.key_index[k]: v for k, v in rhs.items()
             if k in self.key_index}
        coeffs = [self.zero] * len(self.columns)
        for (row, trans), pc in zip(self.echelon, self.pivots):
            acc = self.zero
            for ki, t in trans.items():
                v = y.get(ki)
                if v:
                    acc = acc + t * v
            coeffs[pc] = acc
        return coeffs

    def _subtract_span(self, rhs, coeffs):
        """rhs - sum c_j columns_j, dropping exact zeros."""
        residual = dict(rhs)
        for j, c in enumerate(coeffs):
            if not c:
                continue
            for k, v in self.columns[j].items():
                acc = residual.get(k, self.zero) - c * v
                if acc:
                    residual[k] = acc
                elif k in residual:
                    del residual[k]
        return residual
