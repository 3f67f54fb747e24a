"""The universal differential calculus on the matrix algebra M_n.

A degree-k form is an element of the (k+1)-fold tensor power of M_n whose
contraction at every junction (multiplying two adjacent legs) vanishes;
degree 0 is M_n itself.  Forms are stored sparsely as maps from tuples of
matrix-unit indices to scalars.  On M_n a coefficient is an int when it
is integral and a Fraction otherwise: `from_matrix` and `scale`, where
every outside scalar enters, store an integral Fraction as its numerator,
and nothing here divides, so a Fraction appears only where one enters (the
1/2 of omega, the trace correction of a derivation, a solver coefficient).
In the tensor-product model `polymat` the coefficients are `Poly`,
bivariate polynomials, kept as given.  No unit of the scalar ring is
carried: the constants here are ints, such as the 1 of a matrix unit,
which every scalar type coerces.

The differential inserts the identity into each slot with alternating
signs, d(a0 x ... x am) = sum_i (-1)^i a0 x ... x 1_(i) x ... x am, which
restricts to 1 x a - a x 1 in degree 0; multiplication merges the two
adjacent legs at the junction.  Every derivation of M_n is inner,
ad_S(C) = [S, C], and is kept as its traceless matrix S.  The interior
product contracts S at each junction, with alternating signs: the
contraction of ad_S into leg j, merged left, is a_(j-1) [S, a_j] =
a_(j-1) S a_j - (a_(j-1) a_j) S, and on a form the second term vanishes
because junction j contracts to zero.  The Lie derivative applies ad_S
leg-wise.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Derivation, Form


def _is_scalar(x):
    return isinstance(x, (int, Fraction)) or hasattr(x, "diff_x")


def _integral(c):
    """An integral Fraction as its numerator int; any other scalar as is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class TensorForm(Form):
    """Sparse tensor-leg form over M_n; keys are tuples of flat unit indices.

    No stored coefficient is zero: the constructor drops the zeros of the
    dict it is given, so operations hand it their raw sums.  It and
    `tensor` accept any tensor, but `MatrixDerivation.iprod` assumes a
    form, one whose junctions contract to zero (`in_kernel`).  Its degree
    is the field `deg`, kept by a zero form too, which `degrees()` and the
    inherited `degree()` report.
    """

    __slots__ = ("n", "deg", "terms")
    _printer = "tensor_str"

    def __init__(self, n, degree, terms=None):
        self.n = n
        self.deg = degree
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, degree)

    def degrees(self):
        """The degrees of the form's terms; a zero form keeps its degree."""
        return [self.deg]

    @classmethod
    def unit(cls, n, i, j):
        return cls(n, 0, {(i * n + j,): 1})

    @classmethod
    def identity(cls, n):
        return cls(n, 0, {(i * n + i,): 1 for i in range(n)})

    @classmethod
    def from_matrix(cls, mat):
        """mat: n x n nested sequence of scalars."""
        n = len(mat)
        return cls(n, 0, {(i * n + j,): _integral(mat[i][j])
                          for i in range(n) for j in range(n)})

    def to_matrix(self):
        if self.deg != 0:
            raise ValueError("only 0-forms convert to matrices")
        mat = [[0] * self.n for _ in range(self.n)]
        for (f,), c in self.terms.items():
            mat[f // self.n][f % self.n] = c
        return mat

    # -- ring structure -----------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        if self.deg != other.deg and self.terms and other.terms:
            raise ValueError("degrees differ: %d vs %d" % (self.deg, other.deg))

    def __add__(self, other):
        if not isinstance(other, TensorForm):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return TensorForm(other.n, other.deg, dict(other.terms))
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return TensorForm(self.n, self.deg, out)

    def __neg__(self):
        return TensorForm(self.n, self.deg,
                          {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return TensorForm.zero(self.n, self.deg)
        c = _integral(c)
        return TensorForm(self.n, self.deg,
                          {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, TensorForm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        n = self.n
        out = {}
        for k1, c1 in self.terms.items():
            a = k1[-1]
            ai, aj = divmod(a, n)
            for k2, c2 in other.terms.items():
                b = k2[0]
                bi, bj = divmod(b, n)
                if aj != bi:
                    continue
                key = k1[:-1] + (ai * n + bj,) + k2[1:]
                acc = out.get(key)
                out[key] = c1 * c2 if acc is None else acc + c1 * c2
        return TensorForm(n, self.deg + other.deg, out)

    __rmul__ = __mul__      # reached only for a scalar, which commutes

    def tensor(self, other: "TensorForm") -> "TensorForm":
        """Raw leg concatenation (no junction merge); used to rebuild
        printed forms, whose tensor sign separates legs.  The result need
        not be a form, which `MatrixDerivation.iprod` assumes."""
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[k1 + k2] = c1 * c2
        return TensorForm(self.n, self.deg + other.deg + 1, out)

    def __eq__(self, other):
        if not isinstance(other, TensorForm):
            return NotImplemented
        return (self.n == other.n and self.deg == other.deg
                and self.terms == other.terms)

    # -- calculus ----------------------------------------------------------

    def d(self):
        """Alternating insertion of the identity into each slot."""
        n = self.n
        out = {}
        for key, c in self.terms.items():
            for pos in range(len(key) + 1):
                sign = c if pos % 2 == 0 else -c
                for i in range(n):
                    nk = key[:pos] + (i * n + i,) + key[pos:]
                    acc = out.get(nk)
                    out[nk] = sign if acc is None else acc + sign
        return TensorForm(n, self.deg + 1, out)

    def contract_junctions(self, p_matrix) -> list:
        """Contract junction j of every term with the matrix P inserted,
        for j = 1..degree; returns the list indexed by j-1."""
        n = self.n
        outs = []
        for j in range(1, self.deg + 1):
            out = {}
            for key, c in self.terms.items():
                ai, aj = divmod(key[j - 1], n)
                bi, bj = divmod(key[j], n)
                val = p_matrix[aj][bi]
                if not val:
                    continue
                nk = key[:j - 1] + (ai * n + bj,) + key[j + 1:]
                acc = out.get(nk)
                out[nk] = c * val if acc is None else acc + c * val
            outs.append(TensorForm(n, self.deg - 1, out))
        return outs

    def contract_alternating(self, p_matrix) -> "TensorForm":
        """sum_j (-1)^(j-1) of junction j contracted with P inserted."""
        out = TensorForm.zero(self.n, self.deg - 1)
        for j, t in enumerate(self.contract_junctions(p_matrix)):
            out = out - t if j % 2 else out + t
        return out

    def in_kernel(self):
        """All products of adjacent legs vanish, as on honest forms."""
        eye = TensorForm.identity(self.n).to_matrix()
        return all(t.is_zero() for t in self.contract_junctions(eye))


class MatrixDerivation(Derivation):
    """The inner derivation ad_S(C) = [S, C] = SC - CS of M_n, kept as S.

    S is a degree-0 `TensorForm` made traceless at construction: ad_S =
    ad_T exactly when S - T is a multiple of I, so the traceless S is
    canonical, and the linear structure and commutator are those of S.
    `iprod` contracts S at each junction; `lie` applies [S, E_ij] leg-wise.
    """

    __slots__ = ("n", "s", "label", "_images")

    def __init__(self, s, label=None):
        n = s.n
        trace = sum(s.terms.get((i * n + i,), 0) for i in range(n))
        if trace:
            s = s - TensorForm.identity(n).scale(trace * Fraction(1, n))
        self.n = n
        self.s = s
        self.label = label
        self._images = [None] * (n * n)     # [S, E_unit], built on first use

    @classmethod
    def zero(cls, n):
        return cls(TensorForm.zero(n))

    @classmethod
    def ad(cls, s_matrix, label=None):
        """ad_S for an n x n nested list S of scalars."""
        return cls(TensorForm.from_matrix(s_matrix), label)

    def apply_unit(self, flat):
        """[S, E_ij] for the unit of flat index i n + j, as a dict from flat
        index to nonzero coefficient: S E_ij = sum_k S_ki E_kj and
        E_ij S = sum_k S_jk E_ik."""
        out = self._images[flat]
        if out is None:
            n = self.n
            i, j = divmod(flat, n)
            out = {}
            for (f,), v in self.s.terms.items():
                a, b = divmod(f, n)
                if b == i:
                    o = a * n + j
                    out[o] = out[o] + v if o in out else v
                if a == j:
                    o = i * n + b
                    out[o] = out[o] - v if o in out else -v
            out = self._images[flat] = {o: v for o, v in out.items() if v}
        return out

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MatrixDerivation):
            return NotImplemented
        return MatrixDerivation(self.s + other.s)

    def __rmul__(self, c):
        if _is_scalar(c):
            return MatrixDerivation(self.s.scale(c))
        return NotImplemented

    # -- action -------------------------------------------------------------

    def iprod(self, x: TensorForm) -> TensorForm:
        """sum_j (-1)^(j-1) a_(j-1) S a_j, which on a form x is ad_S
        contracted into leg j and merged left (see the module docstring)."""
        self._iprod_guard(x)
        return x.contract_alternating(self.s.to_matrix())

    def lie(self, x: TensorForm) -> TensorForm:
        out = {}
        for key, c in x.terms.items():
            for j in range(len(key)):
                for o, v in self.apply_unit(key[j]).items():
                    nk = key[:j] + (o,) + key[j + 1:]
                    acc = out.get(nk)
                    out[nk] = c * v if acc is None else acc + c * v
        return TensorForm(x.n, x.deg, out)

    def commutator(self, other: "MatrixDerivation") -> "MatrixDerivation":
        """[ad_S, ad_T] = ad_(ST - TS)."""
        return MatrixDerivation(self.s * other.s - other.s * self.s)

    def coordinates(self):
        """The traceless S's flat key -> coefficient; the live dict."""
        return self.s.coordinates()

    def describe(self):
        """matrix unit -> its nonzero image, printed."""
        from .printing import unit_name

        out = {}
        for i in range(self.n * self.n):
            img = self.apply_unit(i)
            if img:
                out[unit_name(self.n, i)] = str(
                    TensorForm(self.n, 0, {(o,): v for o, v in img.items()}))
        return out

    def __repr__(self):
        return "MatrixDerivation(ad(%s))" % self.s


def antisymmetric_basis(n):
    """E_ij - E_ji for i < j, as 0-forms; spans the antisymmetric matrices."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(TensorForm(n, 0, {(i * n + j,): 1, (j * n + i,): -1}))
    return out


def matrix_symplectic_form(n) -> TensorForm:
    """omega = 1/2 sum_ij dE_ij dE_ij."""
    half = Fraction(1, 2)
    om = TensorForm.zero(n, 2)
    for i in range(n):
        for j in range(n):
            de = TensorForm.unit(n, i, j).d()
            om = om + (de * de).scale(half)
    return om
