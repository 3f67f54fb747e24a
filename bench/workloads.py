"""The four benchmark workloads.

A workload builds its models (`build`, timed in setup_s) and makes one
pass of ops on them (`ops`).  An op is one timed call into ncham's public
API plus the oracle it is checked against after the timer stops.  The seed
orders the ops of a pass.  A run repeats that one pass, each time on
freshly built models and so from cold caches, and always ends between
passes; a traced run replays an untraced one exactly.

ncham is imported inside `build`, never at module level, so that each
set-up measures a fresh import and starts with cold caches.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import operator
import random
from typing import Callable, NamedTuple

import oracles


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]              # the timed call into ncham
    expect: Callable[[], object]           # the oracle's value, untimed
    check: Callable[[object, object], bool] = operator.eq


def interleave(streams, seed):
    """Merge lists of ops, keeping each list's own order; the seed picks
    which list goes next.

    Where a list works on a model of its own, that model's caches see the
    same ops in the same order whatever the seed, so each op is the same
    work on every seed.
    """
    slots = [i for i, ops in enumerate(streams) for _ in ops]
    random.Random(seed).shuffle(slots)
    its = [iter(ops) for ops in streams]
    return [next(its[i]) for i in slots]


class Workload:
    name = ""
    modules = ("ncham",)
    # collect garbage after every op, untimed, as if each op ran in a
    # process of its own
    collect_between_ops = False

    def build(self):
        raise NotImplementedError

    def ops(self, state, seed):
        """One pass of ops on the models `build` returned."""
        raise NotImplementedError


# -- cartan ------------------------------------------------------------------


ACCEPTANCE_SEED = 20260809
TRIPLES_PER_PASS = 13     # 104 ops: a pass needs >= 100 for its op_p90_ref
CARTAN_MODELS = ("torus:p=1", "torus:p=2", "torus:p=3", "matrix:n=2",
                 "matrix:n=3", "cuntz:n=2", "cuntz:n=3", "polymat:D=3")


def _identities(model, ip, rng):
    """The five criterion-1 identities on one seeded random triple."""
    d = model.backend.d
    th = model.random_derivation(rng)
    ph = model.random_derivation(rng)
    x = model.random_form(rng, 2)
    out = [d(ip(th, x)) + ip(th, d(x)) - th.lie(x),                   # 2.5
           d(th.lie(x)) - th.lie(d(x)),                               # 2.6
           ph.lie(ip(th, x)) - ip(th, ph.lie(x))
           - ip(ph.commutator(th), x)]                                 # 2.7
    x2 = d(model.random_form(rng, 1))
    out.append(ip(ph, ip(th, x2)) + ip(th, ip(ph, x2)))               # 2.8
    out.append(th.lie(ph.lie(x)) - ph.lie(th.lie(x))
               - th.commutator(ph).lie(x))                            # 2.9
    return out


class Cartan(Workload):
    """One op is one random triple and its five identities.  A pass is
    TRIPLES_PER_PASS triples on each of the eight acceptance models, with
    normal-form caches warming up as it goes.  Triple k of model i is drawn
    from its own generator, seeded from the acceptance seed, and each
    model's triples run in the order of k; the seed interleaves the
    models."""

    name = "cartan"

    def build(self):
        from ncham.cartan import iprod_or_zero
        from ncham.models import build_model

        return [build_model(d) for d in CARTAN_MODELS], iprod_or_zero

    def ops(self, state, seed):
        models, ip = state
        return interleave(
            [[Op(m.name,
                 lambda m=m, key="%d:%d:%d" % (ACCEPTANCE_SEED, i, k):
                     _identities(m, ip, random.Random(key)),
                 lambda: [True] * 5,
                 lambda res, exp, m=m: [m.backend.is_zero(r)
                                        for r in res] == exp)
              for k in range(TRIPLES_PER_PASS)]
             for i, m in enumerate(models)], seed)


# -- hamiltonian -------------------------------------------------------------


TORUS_P = 3
# exp(t X_b)(u^2 v) to order 4 for b = u^(3s) v^(3t); a flow costs as much
# as a hundred brackets, so a fixed set keeps every seed's pass equal work
FLOW_DIRECTIONS = [st for st in itertools.product((-1, 0, 1), repeat=2)
                   if st != (0, 0)]
FLOW_START = (2, 1)
FLOW_ORDER = 4


def _torus_element(calc, monomials):
    out = calc.zero()
    for (a, b), c in monomials.items():
        out = out + calc.element([("u", a), ("v", b)], c)
    return out


class Hamiltonian(Workload):
    """One pass: the [-6, 6]^2 classification scan (fresh solves), the
    criterion-2 bracket table (25 arguments repeat, so the solver cache
    hits), eight order-4 flows, and the gl(3), so(3) and polymat bracket
    tables.  Each model's ops run in that order, which the seed interleaves
    with the other models'.  Models are rebuilt between passes, so every
    pass starts from cold solver caches."""

    name = "hamiltonian"

    def build(self):
        from ncham.bigraded import BigradedForm
        from ncham.matrixcalc import TensorForm
        from ncham.models import build_model
        from ncham.polynomials import Poly

        models = {d: build_model(d) for d in
                  ("torus:p=%d,B=8" % TORUS_P, "cuntz:n=3", "matrix:n=3",
                   "polymat:D=3")}
        for m in models.values():
            m.solver
        return models, TensorForm, BigradedForm, Poly

    def ops(self, state, seed):
        return interleave(self._streams(state), seed)

    def _streams(self, state):
        models, TensorForm, BigradedForm, Poly = state
        torus = models["torus:p=%d,B=8" % TORUS_P]
        calc, solver, p = torus.calculus, torus.solver, TORUS_P

        def mono(a, b):
            return calc.element([("u", a), ("v", b)])

        ops = []
        streams = [ops]
        for a, b in itertools.product(range(-6, 7), repeat=2):
            ops.append(Op("classify",
                          lambda a=a, b=b: solver.solve(mono(a, b)).hamiltonian,
                          lambda a=a, b=b: oracles.torus_is_hamiltonian(p, a, b)))
        for s, t, s2, t2 in itertools.product(range(-2, 3), repeat=4):
            ops.append(Op(
                "torus_bracket",
                lambda s=s, t=t, s2=s2, t2=t2:
                    solver.poisson(mono(s * p, t * p), mono(s2 * p, t2 * p)),
                lambda s=s, t=t, s2=s2, t2=t2: _torus_element(
                    calc, oracles.torus_bracket(p, s, t, s2, t2))))
        for s, t in FLOW_DIRECTIONS:
            alpha, gamma = FLOW_START
            ops.append(Op(
                "torus_flow",
                lambda s=s, t=t, al=alpha, ga=gamma: solver.flow(
                    mono(s * p, t * p), mono(al, ga), FLOW_ORDER).coefficients,
                lambda s=s, t=t, al=alpha, ga=gamma: [
                    _torus_element(calc, c) for c in
                    oracles.torus_flow(p, s, t, al, ga, FLOW_ORDER)]))

        cuntz = models["cuntz:n=3"]
        cc = cuntz.calculus

        def cuntz_word(i, j):
            return cc.gen("s%d" % (i + 1)) * cc.gen("s%d*" % (j + 1))

        def cuntz_expect(k, l, r, m):
            out = cc.zero()
            for c, (i, j) in oracles.cuntz_bracket(k, l, r, m):
                out = out + cuntz_word(i, j) * c
            return out

        ops = []
        streams.append(ops)
        for k, l, r, m in itertools.product(range(3), repeat=4):
            ops.append(Op("gl3_bracket",
                          lambda k=k, l=l, r=r, m=m: cuntz.solver.poisson(
                              cuntz_word(k, l), cuntz_word(r, m)),
                          lambda k=k, l=l, r=r, m=m: cuntz_expect(k, l, r, m)))

        matrix = models["matrix:n=3"]
        so3 = oracles.so_basis(3)
        ops = []
        streams.append(ops)
        for a, b in itertools.product(so3, repeat=2):
            ops.append(Op("so3_bracket",
                          lambda a=a, b=b: matrix.solver.poisson(
                              TensorForm.from_matrix(a),
                              TensorForm.from_matrix(b)),
                          lambda a=a, b=b: TensorForm.from_matrix(
                              oracles.mat_commutator(a, b))))

        polymat = models["polymat:D=3"]
        monos = [(i, j) for i in range(4) for j in range(4 - i)]

        def polymat_arg(scale, i, j):
            ns = polymat.namespace()
            return scale * (ns["E12"] - ns["E21"]) + \
                BigradedForm.scalar(Poly.monomial(i, j))

        def polymat_expect(i1, j1, i2, j2):
            c, i, j = oracles.polymat_bracket(i1, j1, i2, j2)
            return BigradedForm.scalar(Poly.monomial(i, j, c)) if c else \
                BigradedForm.zero()

        ops = []
        streams.append(ops)
        for (i1, j1), (i2, j2) in itertools.product(monos, repeat=2):
            ops.append(Op("polymat_bracket",
                          lambda i1=i1, j1=j1, i2=i2, j2=j2:
                              polymat.solver.poisson(polymat_arg(2, i1, j1),
                                                     polymat_arg(-3, i2, j2)),
                          lambda i1=i1, j1=j1, i2=i2, j2=j2:
                              polymat_expect(i1, j1, i2, j2)))
        return streams


# -- certify -----------------------------------------------------------------


CERTIFY_STRIDE = 2     # every other one of the 242 derivations: 121 + 2 ops


class Certify(Workload):
    """One op is `check_consistency` of one of every CERTIFY_STRIDE ansatz
    derivations of torus:p=3,B=5, or its local-confluence or
    d omega = 0 certificate.  The derivations run in the basis order; the
    seed places the two certificates among them.
    Nearly every word is new, so the normal-form cache grows all run; the
    model is rebuilt between passes."""

    name = "certify"

    def build(self):
        from ncham.algebra import check_local_confluence
        from ncham.cartan import check_consistency
        from ncham.models import build_model

        return (build_model("torus:p=3,B=5"), check_consistency,
                check_local_confluence)

    def ops(self, state, seed):
        model, consistency, confluence = state
        return interleave(
            [[Op("consistency", lambda th=th: consistency(th).ok,
                 lambda: True)
              for th in model.space.basis[::CERTIFY_STRIDE]],
             [Op("confluence",
                 lambda: confluence(model.calculus).all_joinable,
                 lambda: True)],
             [Op("d_omega", lambda: model.backend.is_zero(
                 model.backend.d(model.omega.omega)), lambda: True)]],
            seed)


# -- cli ---------------------------------------------------------------------


def _invoke(main, argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_matches(result, case):
    code, out, err = result
    out = out.rstrip("\n")
    if case.first_line:
        out = out.split("\n", 1)[0]
    return code == case.code and out == case.stdout and case.stderr in err


CLI_REPEATS = 5     # a pass needs >= 100 ops for its op_p90_ref


class Cli(Workload):
    """`ncham.cli.main(argv)` in-process; a pass is every case of
    oracles.CLI_CASES CLI_REPEATS times in a seeded order.  Every call
    builds its model from scratch, and the garbage of one call is collected
    before the next, as a command run on its own would leave none."""

    name = "cli"
    modules = ("ncham", "ncham.cli")
    collect_between_ops = True

    def build(self):
        from ncham.cli import main

        return main

    def ops(self, state, seed):
        cases = list(oracles.CLI_CASES) * CLI_REPEATS
        random.Random(seed).shuffle(cases)
        return [Op("cli", lambda c=c: _invoke(state, c.argv),
                   lambda c=c: c, cli_matches) for c in cases]


WORKLOADS = {w.name: w for w in (Cartan(), Hamiltonian(), Certify(), Cli())}
