"""Built-in models: torus, matrix algebra, Cuntz algebra, poly (x) M_2.

Each builder returns a ModelDescriptor bundling the calculus, its
`symplectic.Backend`, the closed 2-form, the default derivation ansatz as
a `DerivationSpace` and seeded random generators; the ansatz, the
closedness check of the 2-form and the torus's pool of random
derivations wait for their first use, so a command that only rewrites a
form or applies d, _| or L builds none of them.  Its
`cartan_residuals` is the Cartan identity suite on one random triple,
and its `certify` runs the structural checks (local confluence,
d omega = 0, consistency of the ansatz, trivial omega_tilde kernel).  A
presentation file loads to the same type, with omega None when the file
declares no 2-form; its ansatz is loaded unchecked, so that `certify`
can report an inconsistent member, and its `solver` refuses an unsound
file (`require_sound`).  The model parameters are bounded by the MAX_*
constants below.

Rule orientations.  Torus: differentials first, dv < du < u < v, so the
single algebra rule reads v u -> q^-1 u v and normal form words are
dv^e du^e' u^n v^m; inverse variants are derived automatically.  Cuntz:
algebra letters below differentials, with s_i* s_j -> delta_ij, the sum
relation oriented at its largest word s_n s_n*, the differentials of the
delta relations oriented ds_i* s_j -> -s_i* ds_j, and the differential
of the sum relation oriented at ds_n s_n*.  The latter choice (rather
than s_n ds_n*) is what makes the whole rule set locally confluent:
both orientations reproduce the relation, but only this one joins the
overlap ds_i* s_n s_n* and gives theta_h _| omega the same normal form
as d(h).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import GeneratorSymbol, RuleSpec, check_local_confluence
from .bigraded import (BigradedForm, MixedDerivation,
                       poly_matrix_symplectic_form)
from .cartan import (DerivationSpace, PresentedDerivation,
                     classify_torus_derivations, iprod_or_zero)
from .forms import CalculusPresentation
from .matrixcalc import (MatrixDerivation, TensorForm, antisymmetric_basis,
                         matrix_symplectic_form)
from .polynomials import Poly
from .scalars import q_power
from .symplectic import Backend, HamiltonianSolver, SymplecticForm

# Stated bounds on model size, for the model strings and the `cyclotomic`
# line of a presentation file.  A torus ansatz word carries exponents up to
# 1 + B p over Q[q]/(Phi_p), of dimension phi(p) < p, the Cuntz ansatz
# has n^2 - 1 members over 2 n^2 + 2 rules and the polymat ansatz has
# 3 (D + 1)(D + 2) / 2 members; at these bounds a Hamiltonian answer takes
# seconds, and it grows fast beyond them (a polymat bracket takes about 2 s
# at D = 48 and 5 s at D = 64 on a 2-vCPU Xeon, Python 3.11).  A matrix
# k-form has n^(2k + 2) tensor keys.
MAX_CYCLOTOMIC_ORDER = 32
MAX_TORUS_BOUND = 8
MAX_CUNTZ_N = 16
MAX_MATRIX_N = 4
MAX_POLY_DEGREE = 48


def check_bound(name, value, low, high):
    """value, unless it lies outside its stated bounds low..high."""
    if not low <= value <= high:
        raise ValueError("%s %d is outside the bounds %d..%d"
                         % (name, value, low, high))
    return value


class UnsoundPresentationError(ValueError):
    """A presentation file that can carry no Hamiltonian answers: normal
    forms are unique only on locally confluent rules (Bergman's diamond
    lemma), and an inconsistent derivation is no derivation of the
    presented algebra.  Carries the ConfluenceReport as `confluence` and
    the failing (derivation, report) pairs as `inconsistent`."""

    def __init__(self, message, confluence, inconsistent):
        super().__init__(message)
        self.confluence, self.inconsistent = confluence, inconsistent


class ModelDescriptor:
    """A built model: calculus + omega + ansatz + random generators.

    `calculus` is None on the tensor backends, which have no presentation
    to check for confluence; `omega` is None for a presentation file
    without a 2-form, which then has no solver.

    `basis` and `v_family` are zero-argument functions returning lists of
    derivations.  `space` (the ansatz), `v_family` (the family V the
    ansatz is drawn from; the ansatz itself when not given) and `omega`
    (the `SymplecticForm`, whose constructor checks d omega = 0) are
    built the first time something reads them, and at most once.  So a
    2-form that is not closed raises ValueError on the first read of
    `omega`, not here.
    """

    def __init__(self, kind, params, backend, calculus, omega, basis,
                 random_form, random_derivation, namespace, v_family=None):
        self.kind = kind
        self.params = dict(params)
        self.backend = backend
        self.calculus = calculus
        self._omega, self._basis, self._v_family = omega, basis, v_family
        self.random_form = random_form              # (rng, max_degree=2)
        self.random_derivation = random_derivation  # (rng)
        self._namespace = namespace

    @cached_property
    def omega(self):
        if self._omega is not None:
            return SymplecticForm(self.backend, self._omega)

    @cached_property
    def space(self):
        return DerivationSpace(self._basis())

    @cached_property
    def v_family(self):
        if self._v_family is None:
            return list(self.space.basis)
        return self._v_family()

    @property
    def name(self):
        args = ",".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "%s:%s" % (self.kind, args) if args else self.kind

    @property
    def solver(self) -> HamiltonianSolver:
        if self.omega is None:
            # an AttributeError, so hasattr(model, "solver") is False
            raise AttributeError("model %s declares no symplectic form, so "
                                 "it has no solver" % self.name)
        self.require_sound()
        return self._factored

    @cached_property
    def _factored(self):
        return HamiltonianSolver(self.omega, self.space)

    def require_sound(self):
        """Raise UnsoundPresentationError unless a presentation file's rules
        are locally confluent and then its derivations consistent; checked
        once.  Built-in models pass unchecked."""
        if self.kind == "file" and self._unsound:
            raise UnsoundPresentationError(*self._unsound)

    @cached_property
    def _unsound(self):
        """The error's (message, confluence, inconsistent), or nothing."""
        rep = self.confluence()
        if not rep.all_joinable:
            return ("rules are not locally confluent: "
                    + rep.failures()[0].describe(self.calculus.system), rep, [])
        bad = self.space.inconsistent()
        return bad and ("derivation %s fails its consistency check"
                        % bad[0][0].label, rep, bad)

    def confluence(self):
        """The calculus's ConfluenceReport; None on the tensor backends."""
        if self.calculus is not None:
            return check_local_confluence(self.calculus)

    def namespace(self):
        return dict(self._namespace)

    def certify(self):
        """Structural certificates; list of (check, ok, detail)."""
        out = []
        rep = self.confluence()
        if rep is not None:
            out.append(("local confluence", rep.all_joinable,
                        "%d critical pairs" % len(rep.pairs)))
        consistent = (not self.space.inconsistent(),
                      "%d derivations" % len(self.space.basis))
        if self.omega is None:
            return out + [("derivation consistency",) + consistent]
        out.append(("d omega = 0", True, ""))     # reading omega checked it
        out.append(("ansatz consistency",) + consistent)
        ker = self._factored.kernel_report()
        out.append(("omega_tilde injective", ker.nonsingular, ker.summary()))
        return out

    def cartan_residuals(self, rng):
        """The residuals of Props 2.5-2.9 on one random triple; each is
        exactly zero when its identity holds.

        rng draws derivations th and ph, a form x of degree <= 2 and a
        form y of degree <= 1, in that order; x2 = d(y).  _| of a 0-form
        is zero (`iprod_or_zero`).
        """
        d, ip = self.backend.d, iprod_or_zero
        th = self.random_derivation(rng)
        ph = self.random_derivation(rng)
        x = self.random_form(rng, 2)
        x2 = d(self.random_form(rng, 1))
        return {
            "magic formula": d(ip(th, x)) + ip(th, d(x)) - th.lie(x),
            "d L = L d": d(th.lie(x)) - th.lie(d(x)),
            "L/iprod commutation": ph.lie(ip(th, x)) - ip(th, ph.lie(x))
            - ip(ph.commutator(th), x),
            "iprod antisymmetry": ip(ph, ip(th, x2)) + ip(th, ip(ph, x2)),
            "Lie commutator": th.lie(ph.lie(x)) - ph.lie(th.lie(x))
            - th.commutator(ph).lie(x),
        }

    def __repr__(self):
        return "<model %s>" % self.name


# -- noncommutative torus -------------------------------------------------


def torus_calculus(p: int, root_exp: int = 1) -> CalculusPresentation:
    """Generators u, v with u v = q v u and the first-order calculus
    du dv = -q dv du, u dv = q dv u, v du = q^-1 du v, [u,du] = [v,dv] = 0,
    (du)^2 = (dv)^2 = 0."""
    if p < 1:
        raise ValueError("p must be >= 1")
    from math import gcd

    if gcd(root_exp, p) != 1:
        raise ValueError("root exponent must be coprime to p")
    qq = q_power(p, root_exp)
    qi = q_power(p, -root_exp)
    gens = [GeneratorSymbol("u", invertible=True),
            GeneratorSymbol("v", invertible=True)]
    algebra_rules = [
        RuleSpec.make([("v", 1), ("u", 1)], [(qi, [("u", 1), ("v", 1)])]),
    ]
    form_rules = [
        RuleSpec.make([("u", 1), ("dv", 1)], [(qq, [("dv", 1), ("u", 1)])]),
        RuleSpec.make([("v", 1), ("du", 1)], [(qi, [("du", 1), ("v", 1)])]),
        RuleSpec.make([("u", 1), ("du", 1)], [(1, [("du", 1), ("u", 1)])]),
        RuleSpec.make([("v", 1), ("dv", 1)], [(1, [("dv", 1), ("v", 1)])]),
        RuleSpec.make([("du", 1), ("dv", 1)], [(-qq, [("dv", 1), ("du", 1)])]),
        RuleSpec.make([("du", 1), ("du", 1)], []),
        RuleSpec.make([("dv", 1), ("dv", 1)], []),
    ]
    return CalculusPresentation(gens, algebra_rules, form_rules, p=p,
                                letter_order=["dv", "du", "u", "v"])


def build_torus(p: int, bound: int = 3, root_exp: int = 1) -> ModelDescriptor:
    check_bound("torus p", p, 1, MAX_CYCLOTOMIC_ORDER)
    check_bound("torus ansatz bound B", bound, 0, MAX_TORUS_BOUND)
    calc = torus_calculus(p, root_exp)
    omega = (calc.gen("u", -1) * calc.dgen("u") * calc.dgen("v")
             * calc.gen("v", -1))
    backend = Backend.presented(calc)
    # small-offset pool for randomized identity checking; large exponents
    # only slow the rewriting down without adding coverage.  Like the
    # ansatz it is built on first use, the first draw, so a command that
    # draws no random derivation does not build it
    pool = []

    def random_form(rng, max_degree=2):
        du, dv = calc.dgen("u"), calc.dgen("v")
        out = calc.zero()
        for _ in range(rng.randint(1, 2)):
            t = calc.element([("u", rng.randint(-2, 2)), ("v", rng.randint(-2, 2))],
                             rng.choice([-2, -1, 1, 2]))
            deg = rng.randint(0, max_degree)
            for _ in range(deg):
                t = t * (du if rng.random() < 0.5 else dv)
                t = t * calc.element([("u", rng.randint(-1, 1))])
            out = out + t
        return out

    def random_derivation(rng):
        if not pool:
            pool.extend(classify_torus_derivations(calc, min(bound, 1)))
        combo = rng.choice(pool)
        for _ in range(rng.randint(0, 2)):
            combo = combo + rng.choice([1, 2, -1]) * rng.choice(pool)
        return combo

    return ModelDescriptor(
        kind="torus", params={"p": p} if root_exp == 1 else
        {"p": p, "root": root_exp},
        backend=backend, calculus=calc, omega=omega,
        basis=lambda: classify_torus_derivations(calc, bound),
        random_form=random_form, random_derivation=random_derivation,
        namespace=calc.namespace())


# -- matrix algebra ---------------------------------------------------------


def build_matrix(n: int) -> ModelDescriptor:
    check_bound("matrix n", n, 2, MAX_MATRIX_N)
    omega = matrix_symplectic_form(n)
    backend = Backend(TensorForm.d, MatrixDerivation.zero(n))

    def rand_matrix(rng, entries=2):
        # sparse: the identities are multilinear, dense input only costs time
        m = [[0] * n for _ in range(n)]
        for _ in range(entries):
            m[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 2)
        return m

    def random_form(rng, max_degree=2):
        f = TensorForm.from_matrix(rand_matrix(rng))
        for _ in range(rng.randint(0, max_degree)):
            f = f * TensorForm.from_matrix(rand_matrix(rng)).d()
        return f

    def random_derivation(rng):
        m = rand_matrix(rng)
        anti_m = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]
        return MatrixDerivation.ad(anti_m)

    return ModelDescriptor(
        kind="matrix", params={"n": n}, backend=backend, calculus=None,
        omega=omega, basis=lambda: [MatrixDerivation(a, label="ad(%s)" % a)
                                    for a in antisymmetric_basis(n)],
        random_form=random_form, random_derivation=random_derivation,
        namespace=unit_namespace(n))


def unit_namespace(n: int):
    """The names of M_n: the units E_ij and their differentials dE_ij
    (i, j from 1), and the identity I."""
    ns = {"I": TensorForm.identity(n)}
    for i in range(n):
        for j in range(n):
            e = ns["E%d%d" % (i + 1, j + 1)] = TensorForm.unit(n, i, j)
            ns["dE%d%d" % (i + 1, j + 1)] = e.d()
    return ns


# -- Cuntz algebra -----------------------------------------------------------


def cuntz_calculus(n: int) -> CalculusPresentation:
    """Generators s_1..s_n, s_1*..s_n* with s_i* s_j = delta_ij and
    sum_i s_i s_i* = 1, plus the differentials of both relations."""
    if n < 2:
        raise ValueError("Cuntz algebra needs n >= 2")
    s = ["s%d" % (i + 1) for i in range(n)]
    star = [name + "*" for name in s]
    gens = [GeneratorSymbol(name) for name in s + star]
    algebra_rules = []
    for i in range(n):
        for j in range(n):
            rhs = [(1, [])] if i == j else []
            algebra_rules.append(RuleSpec.make([(star[i], 1), (s[j], 1)], rhs))
    sum_rhs = [(1, [])] + [(-1, [(s[i], 1), (star[i], 1)]) for i in range(n - 1)]
    algebra_rules.append(RuleSpec.make([(s[n - 1], 1), (star[n - 1], 1)], sum_rhs))
    form_rules = []
    for i in range(n):
        for j in range(n):
            form_rules.append(RuleSpec.make(
                [("d" + star[i], 1), (s[j], 1)],
                [(-1, [(star[i], 1), ("d" + s[j], 1)])]))
    dsum_rhs = ([(-1, [("d" + s[i], 1), (star[i], 1)]) for i in range(n - 1)]
                + [(-1, [(s[i], 1), ("d" + star[i], 1)]) for i in range(n)])
    form_rules.append(RuleSpec.make([("d" + s[n - 1], 1), (star[n - 1], 1)],
                                    dsum_rhs))
    letter_order = s + star + ["d" + g for g in s] + ["d" + g for g in star]
    return CalculusPresentation(gens, algebra_rules, form_rules, p=1,
                                letter_order=letter_order)


def theta_h(calc: CalculusPresentation, h, n: int, label=None):
    """The derivation theta_h(s_i) = h s_i, theta_h(s_i*) = -s_i* h."""
    images = {}
    for i in range(n):
        si = calc.gen("s%d" % (i + 1))
        st = calc.gen("s%d*" % (i + 1))
        images["s%d" % (i + 1)] = h * si
        images["s%d*" % (i + 1)] = -(st * h)
    return PresentedDerivation(calc, images, label=label)


def build_cuntz(n: int) -> ModelDescriptor:
    check_bound("cuntz n", n, 2, MAX_CUNTZ_N)
    calc = cuntz_calculus(n)
    omega = calc.zero()
    for i in range(n):
        omega = omega + calc.dgen("s%d" % (i + 1)) * calc.dgen("s%d*" % (i + 1))
    # The full family theta[s_k s_l*] is the paper's V: an n^2-dimensional
    # gl(n) under commutator.  Since sum_k s_k s_k* = 1, it contains
    # theta_1 with omega~(theta_1) = d(1) = 0, so omega~ is singular on
    # it.  The solver ansatz is its sl(n) part: the off-diagonal members
    # plus differences of consecutive diagonal ones.  It is still closed
    # under commutator, omega~ is injective on it, and theta_1 acts as
    # zero on every balanced word, so no Poisson bracket changes.
    def family():
        return [theta_h(calc, calc.gen("s%d" % k) * calc.gen("s%d*" % m), n,
                        label="theta[s%d s%d*]" % (k, m))
                for k in range(1, n + 1) for m in range(1, n + 1)]

    def basis():
        family = model.v_family
        diag = family[::n + 1]
        out = [th for k, th in enumerate(family) if k // n != k % n]
        for i in range(n - 1):
            member = diag[i] - diag[i + 1]
            member.label = ("theta[s%d s%d* - s%d s%d*]"
                            % (i + 1, i + 1, i + 2, i + 2))
            out.append(member)
        return out

    backend = Backend.presented(calc)
    gen_names = [g.name for g in calc.generators]

    def random_word(rng, length):
        out = calc.one()
        for _ in range(length):
            out = out * calc.gen(rng.choice(gen_names))
        return out

    def random_form(rng, max_degree=2):
        for _ in range(50):
            out = calc.zero()
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(0, max_degree)
                t = calc.scalar(rng.choice([-2, -1, 1, 2]))
                letters = [*(["g"] * rng.randint(0, 2)), *(["d"] * deg)]
                rng.shuffle(letters)
                for kind in letters:
                    name = rng.choice(gen_names)
                    t = t * (calc.dgen(name) if kind == "d" else calc.gen(name))
                out = out + t
            if not out.is_zero():
                return out
        return calc.dgen("s1")

    def random_derivation(rng):
        for _ in range(50):
            h = random_word(rng, rng.randint(1, 3))
            if not h.is_zero():
                return theta_h(calc, h, n)
        return model.space.basis[0]

    model = ModelDescriptor(
        kind="cuntz", params={"n": n}, backend=backend, calculus=calc,
        omega=omega, basis=basis, random_form=random_form,
        random_derivation=random_derivation, namespace=calc.namespace(),
        v_family=family)
    return model


# -- polynomial functions with matrix values ----------------------------------


def build_poly_matrix(degree_bound: int = 3) -> ModelDescriptor:
    check_bound("polymat degree bound D", degree_bound, 1, MAX_POLY_DEGREE)
    omega = poly_matrix_symplectic_form()

    def basis():
        out = []
        monos = sorted({(i, d - i) for d in range(degree_bound + 1)
                        for i in range(d + 1)})
        for k, kind in enumerate(("x-flow", "y-flow", "rotation")):
            for i, j in monos:
                thetas = [0, 0, 0]              # theta_x, theta_y, theta_r
                thetas[k] = Poly.monomial(i, j)
                out.append(MixedDerivation(
                    *thetas, label="%s x^%d y^%d" % (kind, i, j)))
        return out

    backend = Backend(BigradedForm.d, MixedDerivation())

    def rand_poly(rng, d=2, terms=2):
        out = {}
        for _ in range(terms):
            i = rng.randint(0, d)
            out[(i, rng.randint(0, d - i))] = Fraction(rng.randint(-2, 2))
        return Poly(out)

    def rand_zero_form(rng):
        return BigradedForm.from_matrix(
            [[rand_poly(rng, 1) for _ in range(2)] for _ in range(2)])

    def random_form(rng, max_degree=2):
        f = rand_zero_form(rng)
        for _ in range(rng.randint(0, max_degree)):
            choice = rng.randrange(3)
            if choice == 0:
                g = BigradedForm.classical(("x",), rand_poly(rng, 1))
            elif choice == 1:
                g = BigradedForm.classical(("y",), rand_poly(rng, 1))
            else:
                g = rand_zero_form(rng).d()
            f = f * g
        return f

    def random_derivation(rng):
        g = rand_poly(rng, 2)
        return MixedDerivation(rand_poly(rng, 2), rand_poly(rng, 2), g)

    ns = {
        "x": BigradedForm.scalar(Poly.x()),
        "y": BigradedForm.scalar(Poly.y()),
        "dx": BigradedForm.classical(("x",)),
        "dy": BigradedForm.classical(("y",)),
    }
    ns.update((k, BigradedForm.lift(t)) for k, t in unit_namespace(2).items())
    return ModelDescriptor(
        kind="polymat", params={"D": degree_bound}, backend=backend,
        calculus=None, omega=omega, basis=basis, random_form=random_form,
        random_derivation=random_derivation, namespace=ns)


# -- model strings ------------------------------------------------------------


def build_model(descriptor: str) -> ModelDescriptor:
    """Build from a CLI string: torus:p=2[,B=3][,root=1], matrix:n=3,
    cuntz:n=2, polymat:D=3."""
    kind, _, argtxt = descriptor.partition(":")
    kind = kind.strip()
    args = {}
    if argtxt:
        for chunk in argtxt.split(","):
            key, _, val = chunk.partition("=")
            key = key.strip()
            try:
                value = int(val)
            except ValueError:
                value = None
            if not key or value is None:
                raise ValueError("malformed model argument %r" % chunk)
            if key in args:
                raise ValueError("model argument %r is given twice" % key)
            args[key] = value
    builders = {
        "torus": lambda: build_torus(args.pop("p", 2), args.pop("B", 3),
                                     args.pop("root", 1)),
        "matrix": lambda: build_matrix(args.pop("n", 2)),
        "cuntz": lambda: build_cuntz(args.pop("n", 2)),
        "polymat": lambda: build_poly_matrix(args.pop("D", 3)),
    }
    if kind not in builders:
        raise ValueError("unknown model kind %r" % kind)
    model = builders[kind]()
    if args:
        raise ValueError("model %s does not take %s"
                         % (kind, ", ".join(sorted(args))))
    return model
