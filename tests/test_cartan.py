"""Derivations, interior products, Lie derivatives, consistency checks."""

import random

import pytest
from closure import commutator_closure
from test_algebra import _readme_text

from ncham.algebra import DegreeError, Element, RewriteSystem, RuleSpec
from ncham.cartan import (DerivationSpace, PresentedDerivation,
                          check_consistency, classify_torus_derivations,
                          iprod_or_zero)
from ncham.exprparse import load_presentation
from ncham.models import (build_model, cuntz_calculus, theta_h,
                          torus_calculus)


def torus_derivation(calc, img_u=None, img_v=None):
    images = {}
    if img_u is not None:
        images["u"] = img_u
    if img_v is not None:
        images["v"] = img_v
    return PresentedDerivation(calc, images)


def test_apply_examples():
    calc = torus_calculus(2)
    u = calc.gen("u")
    th = torus_derivation(calc, img_u=u)
    assert th.apply(calc.gen("u", -1)) == -calc.gen("u", -1)
    assert th.apply(calc.one()).is_zero()

    cc = cuntz_calculus(2)
    h = cc.gen("s1") * cc.gen("s2*")
    th_h = theta_h(cc, h, 2)
    assert th_h.apply(cc.gen("s2")) == cc.gen("s1")


def test_iprod_examples():
    calc = torus_calculus(2)
    u, v = calc.gen("u"), calc.gen("v")
    du, dv = calc.dgen("u"), calc.dgen("v")
    ui, vi = calc.gen("u", -1), calc.gen("v", -1)
    omega = ui * du * dv * vi
    th = torus_derivation(calc, img_u=u)
    assert th.iprod(du) == u                      # theta _| du = theta(u)
    assert th.iprod(omega) == dv * vi
    with pytest.raises(DegreeError):
        th.iprod(u)
    assert iprod_or_zero(th, u).is_zero()


def test_iprod_general_display_identity():
    """theta _| omega = u^-1 theta(u) dv v^-1 - u^-1 du theta(v) v^-1."""
    rng = random.Random(17)
    for p in (2, 3):
        calc = torus_calculus(p)
        du, dv = calc.dgen("u"), calc.dgen("v")
        ui, vi = calc.gen("u", -1), calc.gen("v", -1)
        omega = ui * du * dv * vi
        basis = classify_torus_derivations(calc, 1)
        for _ in range(15):
            th = rng.choice(basis) + 2 * rng.choice(basis)
            a, b = th.images["u"], th.images["v"]
            assert th.iprod(omega) == ui * a * dv * vi - ui * du * b * vi


def test_lie_examples():
    calc = torus_calculus(2)
    u = calc.gen("u")
    du = calc.dgen("u")
    th = torus_derivation(calc, img_u=u)
    assert th.lie(du) == calc.d(u)
    assert th.lie(calc.gen("u", -1) * du).is_zero()   # log form is invariant

    cc = cuntz_calculus(2)
    th_h = theta_h(cc, cc.gen("s1") * cc.gen("s2*"), 2)
    rel = cc.zero()
    for i in (1, 2):
        rel = rel + cc.dgen("s%d" % i) * cc.gen("s%d*" % i) \
            + cc.gen("s%d" % i) * cc.dgen("s%d*" % i)
    assert th_h.lie(rel).is_zero()


def test_commutator_examples():
    calc = torus_calculus(2)
    basis = classify_torus_derivations(calc, 2)
    th = basis[0] + 3 * basis[5]
    assert th.commutator(th).is_zero()

    # torus p=2: [X_{u^2 v^2}, X_{u^2 v^4}] = X_{{u^2v^2, u^2v^4}}
    def x_field(s, t, p=2):
        xu = calc.element([("u", 1 + s * p), ("v", t * p)], t * p)
        xv = calc.element([("u", s * p), ("v", 1 + t * p)], -s * p)
        return PresentedDerivation(calc, {"u": xu, "v": xv})

    lhs = x_field(1, 1).commutator(x_field(1, 2))
    # {u^2v^2, u^2v^4} = -4 u^4 v^6, and X is linear in the Hamiltonian
    rhs = (-4) * x_field(2, 3)
    assert lhs.coordinates() == rhs.coordinates()


def test_consistency_examples():
    calc = torus_calculus(2)
    ok = torus_derivation(calc,
                          img_u=calc.element([("u", 3), ("v", 2)]),
                          img_v=calc.element([("u", 2), ("v", 3)]))
    assert check_consistency(ok).ok

    bad = torus_derivation(calc, img_u=calc.gen("u") * calc.gen("u"))
    rep = check_consistency(bad)
    assert not rep.ok
    assert rep.failures()

    cc = cuntz_calculus(2)
    rng = random.Random(23)
    names = ["s1", "s2", "s1*", "s2*"]
    for _ in range(10):
        h = cc.one()
        for _ in range(rng.randint(1, 3)):
            h = h * cc.gen(rng.choice(names))
        if h.is_zero():
            continue
        assert check_consistency(theta_h(cc, h, 2)).ok


# -- the relations, built once per rule set ----------------------------------


def reference_all_relations(calc):
    """all_relations as it was: every rule's elements built afresh."""
    system = calc.system
    out = []
    for rule in system.rules:
        lhs = Element(system, {rule.lhs: system.one()}, normal=True)
        rhs = Element(system, dict(rule.rhs), normal=True)
        tag = "derived " if rule.derived else ""
        out.append(("%srule %s" % (tag, system.word_str(rule.lhs)), lhs, rhs))
    return out


def reference_consistency(theta):
    """check_consistency as it was, on relations built afresh and sorted by
    a degree test of their own: (description, ok, residual printed)."""
    deg = theta.calculus.system.table.word_degree
    out = []
    for desc, lhs, rhs in reference_all_relations(theta.calculus):
        rel = lhs - rhs
        if all(deg(w) == 0 for w in rel.terms):
            ops = [("apply", theta.apply)]
        else:
            ops = [("iprod", theta.iprod), ("lie", theta.lie)]
        for name, op in ops:
            res = op(rel)
            out.append(("%s on %s" % (name, desc), res.is_zero(), str(res)))
    return out


def _readme_model(tmp_path, extra=""):
    path = tmp_path / "readme.pres"
    path.write_text(_readme_text() + extra)
    return load_presentation(str(path))


@pytest.mark.parametrize("build", [
    lambda tmp_path: torus_calculus(1),
    lambda tmp_path: torus_calculus(2),
    lambda tmp_path: torus_calculus(3),
    lambda tmp_path: cuntz_calculus(2),
    lambda tmp_path: cuntz_calculus(3),
    lambda tmp_path: _readme_model(tmp_path).calculus,
], ids=["torus-p1", "torus-p2", "torus-p3", "cuntz-n2", "cuntz-n3",
        "readme-file"])
def test_all_relations_match_the_relations_built_afresh(build, tmp_path):
    calc = build(tmp_path)

    def listed(relations):
        return [(desc, list(lhs.terms.items()), list(rhs.terms.items()))
                for desc, lhs, rhs in relations]
    got = [r[:3] for r in calc.system.relations()]
    want = reference_all_relations(calc)
    assert listed(got) == listed(want)
    # clearing a copy leaves the kept list as it was
    got.clear()
    assert listed([r[:3] for r in calc.system.relations()]) == listed(want)


@pytest.mark.parametrize("desc", ["torus:p=3,B=2", "cuntz:n=3",
                                  "readme-file-with-bad"])
def test_consistency_checks_match_the_relations_built_afresh(desc, tmp_path):
    """Every check of every ansatz member: description, verdict and
    residual are those of the relations built afresh for each check."""
    if desc == "readme-file-with-bad":
        model = _readme_model(tmp_path, "derivation bad: u -> u v, v -> 0\n")
    else:
        model = build_model(desc)
    failing = []
    for theta in model.space.basis:
        rep = check_consistency(theta)
        assert [(c.description, c.ok, str(c.residual)) for c in rep.checks] \
            == reference_consistency(theta)
        if not rep.ok:
            failing.append(theta.label)
    assert failing == (["bad"] if desc == "readme-file-with-bad" else [])


def test_consistency_builds_the_relations_once_per_rule_set(monkeypatch):
    """A second check on one rule set reuses the kept relations: it takes
    no difference of elements and prints no rule."""
    calc = torus_calculus(3)
    theta = torus_derivation(calc, img_u=calc.element([("u", 4)]))
    first = check_consistency(theta)
    kept = calc.system.relations()
    assert calc.system.relations() is kept
    calls = []
    monkeypatch.setattr(Element, "__sub__", lambda *a: calls.append(a))
    monkeypatch.setattr(RewriteSystem, "word_str", lambda *a: calls.append(a))
    second = check_consistency(theta)
    assert calls == [] and calc.system.relations() is kept
    assert [(c.description, c.ok, str(c.residual)) for c in second.checks] \
        == [(c.description, c.ok, str(c.residual)) for c in first.checks]


def test_add_rule_drops_the_kept_relations():
    """As the sort table is dropped: a rule added through the rewrite system
    is listed and checked at once, and still after finish_rules."""
    calc = torus_calculus(3)
    theta = torus_derivation(calc, img_u=calc.gen("u"))
    descs = [desc for desc, *_ in calc.system.relations()]
    assert check_consistency(theta).ok
    kept = calc.system.relations()
    calc.system.add_rule(RuleSpec.make([("u", 2)], [(1, [])]))
    for finish in (False, True):
        if finish:
            calc.finish_rules()
        assert calc.system.relations() is not kept
        relations = [r[:3] for r in calc.system.relations()]
        assert [desc for desc, _, _ in relations] == descs + ["rule u^2"]
        assert relations[-1][2] == calc.one()
        check = check_consistency(theta).checks[-1]
        # theta(u^2 - 1) = 2 u^2, which the new rule reads as 2
        assert (check.description, check.ok, str(check.residual)) \
            == ("apply on rule u^2", False, "2")


def test_classification_counts_and_membership():
    for p in (1, 2, 3):
        calc = torus_calculus(p)
        basis = classify_torus_derivations(calc, 1)
        assert len(basis) == 18
        for th in basis:
            assert check_consistency(th).ok


def test_classification_p1_bound0_is_classical():
    calc = torus_calculus(1)
    basis = classify_torus_derivations(calc, 0)
    assert len(basis) == 2
    assert basis[0].images["u"] == calc.gen("u")
    assert basis[0].images["v"].is_zero()
    assert basis[1].images["v"] == calc.gen("v")
    assert basis[1].images["u"].is_zero()


def test_classification_matches_brute_force_scan():
    """Monomial images u^a v^b pass consistency iff Prop-4.1 shaped."""
    for p in (1, 2, 3):
        calc = torus_calculus(p)
        for a in range(-3, 4):
            for b in range(-3, 4):
                img = calc.element([("u", a), ("v", b)])
                th_u = torus_derivation(calc, img_u=img)
                th_v = torus_derivation(calc, img_v=img)
                expect_u = (a % p == 1 % p) and (b % p == 0)
                expect_v = (a % p == 0) and (b % p == 1 % p)
                assert check_consistency(th_u).ok == expect_u, (p, a, b)
                assert check_consistency(th_v).ok == expect_v, (p, a, b)


def test_derivation_space_checks_and_closure():
    calc = torus_calculus(2)
    basis = classify_torus_derivations(calc, 1)
    assert DerivationSpace(basis).inconsistent() == []
    statuses = {s for _, _, s in commutator_closure(basis)}
    assert "INCONSISTENT" not in statuses
    # offsets add, so some commutators land beyond the stored bound
    assert statuses <= {"in-span", "consistent-beyond-truncation"}

    bad = torus_derivation(calc, img_u=calc.gen("u") * calc.gen("u"))
    (theta, rep), = DerivationSpace(basis + [bad]).inconsistent()
    assert theta is bad and not rep.ok


def test_cuntz_family_commutator_closed(cuntz2):
    space = DerivationSpace(cuntz2.v_family)
    assert space.inconsistent() == []
    assert all(status == "in-span"
               for _, _, status in commutator_closure(cuntz2.v_family))


def test_derivation_images_must_be_0_forms():
    calc = torus_calculus(2)
    with pytest.raises(ValueError, match="image of v must be a 0-form"):
        torus_derivation(calc, img_u=calc.gen("u"),
                         img_v=calc.gen("u") * calc.dgen("v"))
    # a form that normalizes to zero is the zero image
    th = torus_derivation(calc, img_u=calc.dgen("u") * calc.dgen("u"))
    assert th.is_zero()


def test_derivation_images_come_from_its_calculus():
    calc, other = torus_calculus(2), torus_calculus(2)
    with pytest.raises(ValueError,
                       match="^element belongs to a different calculus$"):
        torus_derivation(calc, img_u=other.gen("u"))
    # the constructor keeps each image as given: it is in normal form
    model = build_model("torus:p=3,B=8")
    calc = model.calculus
    assert len(model.space.basis) == 578
    for theta in model.space.basis:
        for img in theta.images.values():
            assert list(img.terms.items()) == \
                list(Element(calc.system, dict(img.terms)).terms.items())


@pytest.mark.parametrize("name", ["torus1", "torus2", "torus3", "matrix2",
                                  "matrix3", "cuntz2", "cuntz3", "polymat",
                                  "readme-file"])
def test_forms_and_derivations_share_one_contract(name, request, tmp_path):
    """theta(a), _| and L, the derivations' linear structure and the forms'
    subtraction and degree obey one contract in every calculus."""
    model = (_readme_model(tmp_path) if name == "readme-file"
             else request.getfixturevalue(name))
    d = model.backend.d
    rng = random.Random(2028)
    for _ in range(8):
        theta = model.random_derivation(rng)
        phi = model.random_derivation(rng)
        a, b = model.random_form(rng, 0), model.random_form(rng, 0)
        tensor = hasattr(a, "n")        # a TensorForm's degree is an attribute
        assert theta(a) == theta.apply(a) == theta.lie(a)
        assert (-theta).coordinates() == ((-1) * theta).coordinates()
        assert (theta - phi).coordinates() == \
            (theta + (-1) * phi).coordinates()
        for x, y in ((a, b), (d(a), d(b))):
            assert x - y == x + (-y)
        da = d(a)
        if not a.is_zero():
            with pytest.raises(DegreeError,
                               match="^interior product needs degree >= 1$"):
                theta.iprod(a)
        zero = a - a
        if tensor:
            with pytest.raises(DegreeError):
                theta.iprod(zero)
            assert (da.degree, zero.degree) == (1, 0)
        else:
            assert theta.iprod(zero).is_zero()
            assert zero.degree() == 0
        # polymat's d(a) has a matrix part that a 0-form cannot join, and
        # dx a is a purely classical one
        one_form = model.namespace()["dx"] * a if name == "polymat" else da
        for x in (da, one_form):
            if x.is_zero():
                continue
            for op in (theta, theta.apply):
                with pytest.raises(ValueError, match="^apply expects a "
                                                     "0-form; use lie for forms$"):
                    op(x)
            if not tensor:
                assert x.degree() == 1
        if not (tensor or a.is_zero() or one_form.is_zero()):
            with pytest.raises(ValueError, match="not homogeneous"):
                (a + one_form).degree()
