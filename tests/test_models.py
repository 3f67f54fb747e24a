"""Built-in model descriptors: certificates, families, CLI strings."""

import pytest
from closure import commutator_closure

from ncham.matrixcalc import MatrixDerivation
from ncham.models import build_matrix, build_model, build_torus, theta_h


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
