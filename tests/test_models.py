"""Built-in model descriptors: certificates, families, CLI strings."""

import random
from fractions import Fraction

import pytest
from closure import commutator_closure

from ncham.matrixcalc import MatrixDerivation
from ncham.models import (build_cuntz, build_matrix, build_model,
                          build_poly_matrix, build_torus, theta_h)
from ncham.polynomials import Poly
from ncham.scalars import q_power


def test_certificates_all_models(all_models):
    for model in all_models:
        for name, ok, detail in model.certify():
            assert ok, "%s failed %s (%s)" % (model.name, name, detail)


def test_torus_builder_details(torus2, torus3):
    assert torus2.name == "torus:p=2"
    # p=2, bound 3: 2 * 7^2 consistent basis derivations
    assert len(torus2.space.basis) == 98
    calc = torus3.calculus
    # p=3: Hamiltonian monomials are exactly u^(3s) v^(3t)
    for a, b, expect in [(3, 0, True), (0, 3, True), (3, 3, True),
                         (6, -3, True), (1, 0, False), (2, 3, False),
                         (3, 4, False), (0, 0, True)]:
        sol = torus3.solver.solve(calc.element([("u", a), ("v", b)]))
        assert sol.hamiltonian == expect, (a, b)


def test_torus_root_exponent_choice():
    # any primitive root gives the same bracket structure
    for root in (1, 2):
        m = build_torus(3, bound=2, root_exp=root)
        calc = m.calculus
        a = calc.element([("u", 3)])
        b = calc.element([("v", 3)])
        got = m.solver.poisson(a, b)
        # (t s' - t' s) p^2 with (s,t) = (1,0), (s',t') = (0,1) gives -9
        assert got == calc.element([("u", 3), ("v", 3)], -9)


def test_matrix_builder_details(matrix2, matrix3):
    assert len(matrix2.space.basis) == 1
    assert len(matrix3.space.basis) == 3
    ns = matrix2.namespace()
    s = ns["E12"] - ns["E21"]
    sol = matrix2.solver.solve(s)
    # X_S = ad_S
    assert sol.vector_field.coordinates() == \
        MatrixDerivation.ad(s.to_matrix()).coordinates()
    with pytest.raises(ValueError):
        build_matrix(5)


def test_cuntz_builder_details(cuntz2):
    calc = cuntz2.calculus
    # theta_{s_k s_l*} _| omega = d(s_k s_l*)
    for k in (1, 2):
        for m in (1, 2):
            h = calc.gen("s%d" % k) * calc.gen("s%d*" % m)
            th = theta_h(calc, h, 2)
            assert th.iprod(cuntz2.omega.omega) == calc.d(h)
    # the full family contains theta_1 with omega~(theta_1) = 0
    ths = [theta_h(calc, calc.gen("s%d" % i) * calc.gen("s%d*" % i), 2)
           for i in (1, 2)]
    theta_one = ths[0] + ths[1]
    assert theta_one.iprod(cuntz2.omega.omega).is_zero()
    assert not theta_one.is_zero()
    # which is why the solver ansatz omits the redundant member
    assert len(cuntz2.space.basis) == 3
    assert len(cuntz2.v_family) == 4


def test_cuntz_hamiltonian_family_boundary(cuntz2):
    """Longer balanced words fall outside the Hamiltonian family: the
    interior Leibniz terms of d(h) are not in the image of omega~."""
    calc = cuntz2.calculus

    def word(*names):
        out = calc.one()
        for nm in names:
            out = out * calc.gen(nm)
        return out

    for h in (word("s1", "s1", "s1*", "s1*"),
              word("s2", "s1", "s1*", "s2*"),
              word("s1", "s2", "s1*", "s2*")):
        th = theta_h(calc, h, 2)
        assert th.iprod(cuntz2.omega.omega) != calc.d(h)
        assert not cuntz2.solver.solve(h).hamiltonian


def test_polymat_builder_details(polymat):
    # 10 monomials of degree <= 3 for each of the three components
    assert len(polymat.space.basis) == 30
    assert polymat.name == "polymat:D=3"


def test_build_model_strings():
    assert build_model("torus:p=2").name == "torus:p=2"
    assert build_model("torus:p=2,B=1").space.basis
    assert build_model("matrix:n=3").name == "matrix:n=3"
    assert build_model("cuntz:n=2").name == "cuntz:n=2"
    assert build_model("polymat:D=2").name == "polymat:D=2"
    with pytest.raises(ValueError):
        build_model("weyl:n=1")
    with pytest.raises(ValueError):
        build_model("torus:p")


def test_cuntz_ansatz_commutator_closed(cuntz2, cuntz3):
    from ncham.cartan import DerivationSpace

    for model in (cuntz2, cuntz3):
        assert DerivationSpace(model.space.basis).inconsistent() == []
        assert all(status == "in-span" for _, _, status
                   in commutator_closure(model.space.basis))


def test_torus_p1_classical_brackets(torus1):
    calc = torus1.calculus
    for s, t, s2, t2 in [(1, 0, 0, 1), (2, 1, -1, 1), (1, 1, 1, -1)]:
        a = calc.element([("u", s), ("v", t)])
        b = calc.element([("u", s2), ("v", t2)])
        got = torus1.solver.poisson(a, b)
        want = calc.element([("u", s + s2), ("v", t + t2)], t * s2 - t2 * s)
        assert got == want


def test_build_model_rejects_stray_arguments():
    import pytest

    with pytest.raises(ValueError):
        build_model("matrix:n=2,B=4")


CARTAN_IDENTITIES = ["magic formula", "d L = L d", "L/iprod commutation",
                     "iprod antisymmetry", "Lie commutator"]


def test_cartan_residuals_draw_like_criterion_1(all_models):
    # the four draws of tests/test_acceptance.py criterion 1, in its order
    import random

    for model in all_models:
        suite, manual = random.Random(2026), random.Random(2026)
        for _ in range(3):
            res = model.cartan_residuals(suite)
            model.random_derivation(manual)
            model.random_derivation(manual)
            model.random_form(manual, 2)
            model.backend.d(model.random_form(manual, 1))
            assert suite.getstate() == manual.getstate(), model.name
            assert list(res) == CARTAN_IDENTITIES
            assert all(r.is_zero() for r in res.values()), model.name


def test_forms_and_derivations_share_one_zero_test_and_one_text(all_models):
    rng = random.Random(36)
    for model in all_models:
        for _ in range(5):
            th = model.random_derivation(rng)
            x = model.random_form(rng, 2)
            for y in (x, model.backend.d(x), th.lie(x), x - x):
                assert y.is_zero() == (not y.coordinates()), model.name
                assert str(y) == repr(y), model.name
            for phi in (th, th.commutator(model.random_derivation(rng))):
                assert phi.is_zero() == (not phi.coordinates()), model.name
            assert (x - x).is_zero() and (th - th).is_zero(), model.name
            assert not model.backend.zero_derivation.coordinates()
            assert model.backend.zero_derivation.is_zero()
    p = Poly.x() - Fraction(1, 2)
    assert str(p) == repr(p) == "-1/2 + x"
    assert repr(q_power(3, 2)) == "CycScalar(p=3, -1 - q)"


@pytest.mark.parametrize("desc", ["torus:p=2", "matrix:n=2", "cuntz:n=2",
                                  "polymat:D=2"])
def test_check_evaluates_every_identity_count_times(capsys, monkeypatch,
                                                    desc):
    from collections import Counter

    from ncham.cli import main
    from ncham.models import ModelDescriptor

    evaluated = Counter()
    suite = ModelDescriptor.cartan_residuals

    class Residual:
        def __init__(self, name, value):
            self.name, self.value = name, value

        def is_zero(self):
            evaluated[self.name] += 1
            return self.value.is_zero()

    def counted(model, rng):
        return {name: Residual(name, value)
                for name, value in suite(model, rng).items()}

    monkeypatch.setattr(ModelDescriptor, "cartan_residuals", counted)
    assert main(["--model", desc, "check", "--count", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert evaluated == Counter({name: 7 for name in CARTAN_IDENTITIES})
    assert lines[-5:] == ["PASS %s (7 trials, seed 2026)" % name
                          for name in CARTAN_IDENTITIES]


# -- what a command builds ----------------------------------------------------

LAZY_COMMANDS = {
    "torus:p=2": [("normalize", "v u"), ("d", "u v"),
                  ("iprod", "u -> u^3 v^2, v -> 0", "du dv"),
                  ("lie", "u -> u^3 v^2, v -> 0", "u du"),
                  ("lie", "u -> 0, v -> u^2 v^3", "v"), ("confluence",)],
    "matrix:n=3": [("normalize", "E12 E21"), ("d", "E12"),
                   ("iprod", "S: E12 - E21", "E11 dE12"),
                   ("lie", "S: E12 - E21", "E11"),
                   ("lie", "S: 2 E11 + E12", "E11 dE12"), ("confluence",)],
}
HAMILTONIAN = {"torus:p=2": "u^2 v^2", "matrix:n=3": "E12 - E21"}


@pytest.fixture
def builds(monkeypatch):
    """The bounds of every classify_torus_derivations call and the number
    of SymplecticForm closedness checks, from the moment it is used."""
    import ncham.models
    from ncham.symplectic import SymplecticForm

    seen = {"bounds": [], "checks": 0}
    classify, check_closed = (ncham.models.classify_torus_derivations,
                              SymplecticForm.check_closed)

    def counted_classify(calc, bound):
        seen["bounds"].append(bound)
        return classify(calc, bound)

    def counted_check_closed(self):
        seen["checks"] += 1
        check_closed(self)

    monkeypatch.setattr(ncham.models, "classify_torus_derivations",
                        counted_classify)
    monkeypatch.setattr(SymplecticForm, "check_closed", counted_check_closed)
    return seen


@pytest.mark.parametrize("desc", sorted(LAZY_COMMANDS))
def test_a_command_builds_only_what_it_uses(capsys, builds, desc):
    """Rewriting, d, _|, L and confluence build neither the ansatz nor
    omega's closedness check nor the torus pool of random derivations
    (bound 1); is-hamiltonian builds the ansatz and the check once, and
    check, which draws, builds the pool once too."""
    from ncham.cli import main

    torus = desc.startswith("torus")
    for command in LAZY_COMMANDS[desc]:
        builds.update(bounds=[], checks=0)
        assert main(["--model", desc, *command]) == 0, command
        assert builds == {"bounds": [], "checks": 0}, command
    builds.update(bounds=[], checks=0)
    assert main(["--model", desc, "is-hamiltonian", HAMILTONIAN[desc]]) == 0
    ansatz = [3] if torus else []
    assert builds == {"bounds": ansatz, "checks": 1}
    builds.update(bounds=[], checks=0)
    assert main(["--model", desc, "check", "--count", "2"]) == 0
    pool = [1] if torus else []
    assert builds == {"bounds": ansatz + pool, "checks": 1}
    capsys.readouterr()


def test_lazy_members_are_built_once(builds):
    torus = build_model("torus:p=2")
    assert torus.space is torus.space
    assert torus.omega is torus.omega
    assert torus.v_family == torus.space.basis
    assert builds == {"bounds": [3], "checks": 1}
    rng = random.Random(1)
    torus.random_derivation(rng)
    torus.random_derivation(rng)
    assert builds == {"bounds": [3, 1], "checks": 1}

    cuntz = build_model("cuntz:n=2")
    assert len(cuntz.v_family) == 4
    assert len(cuntz.space.basis) == 3
    # the ansatz is drawn from the one family: off-diagonal members first
    assert cuntz.space.basis[:2] == [cuntz.v_family[1], cuntz.v_family[2]]
    assert cuntz.space.basis[0] is cuntz.v_family[1]


def test_cuntz_random_derivation_falls_back_to_the_ansatz():
    """Every drawn word s1* s2 is zero, so random_derivation returns the
    first member of the model's own ansatz."""
    class ZeroWords:
        def __init__(self):
            self.names = iter(["s1*", "s2"] * 50)

        def randint(self, low, high):
            return 2

        def choice(self, seq):
            return next(self.names)

    cuntz = build_model("cuntz:n=2")
    assert cuntz.random_derivation(ZeroWords()) is cuntz.space.basis[0]


def test_deferred_closedness_check_covers_every_model(builds):
    models = [build_torus(1), build_torus(2), build_torus(3), build_matrix(2),
              build_matrix(3), build_cuntz(2), build_cuntz(3),
              build_poly_matrix(3)]
    assert builds["checks"] == 0
    for k, model in enumerate(models, 1):
        omega = model.omega.omega
        assert builds["checks"] == k, model.name
        assert model.backend.is_zero(model.backend.d(omega)), model.name


def test_a_form_that_is_not_closed_fails_on_first_use(torus2):
    from ncham.models import ModelDescriptor

    calc = torus2.calculus
    model = ModelDescriptor(
        kind="torus", params={"p": 2}, backend=torus2.backend, calculus=calc,
        omega=calc.gen("u") * calc.dgen("v"), basis=lambda: [],
        random_form=torus2.random_form,
        random_derivation=torus2.random_derivation,
        namespace=calc.namespace())
    assert model.name == "torus:p=2"
    for _ in range(2):
        with pytest.raises(ValueError, match="the 2-form is not closed"):
            model.omega
    with pytest.raises(ValueError, match="the 2-form is not closed"):
        model.solver
