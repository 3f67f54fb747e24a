"""Graded rewriting and the differential on presented calculi."""

import random

import pytest

from ncham.algebra import Element
from ncham.models import cuntz_calculus, torus_calculus
from ncham.scalars import q_power


def test_torus_form_relations():
    for p in (2, 3):
        calc = torus_calculus(p)
        q = q_power(p, 1)
        u, v = calc.gen("u"), calc.gen("v")
        du, dv = calc.dgen("u"), calc.dgen("v")
        assert (du * dv + q * (dv * du)).is_zero()
        assert u * dv == q * (dv * u)
        assert v * du == q_power(p, -1) * (du * v)
        assert (du * du).is_zero() and (dv * dv).is_zero()
        assert u * du == du * u and v * dv == dv * v


def test_degree_accessor():
    calc = torus_calculus(2)
    assert (calc.dgen("u") * calc.dgen("v")).degree() == 2
    assert calc.gen("u").degree() == 0


def test_differential_examples():
    calc = torus_calculus(2)
    u, v = calc.gen("u"), calc.gen("v")
    du, dv = calc.dgen("u"), calc.dgen("v")
    ui, vi = calc.gen("u", -1), calc.gen("v", -1)
    assert calc.d(u * dv) == du * dv
    assert calc.d(ui) == -(ui * du * ui)
    omega = ui * du * dv * vi
    assert calc.d(omega).is_zero()


def test_no_nonzero_3_forms_on_torus():
    """Exhaustive over bounded words: every degree-3 word normalizes to 0."""
    calc = torus_calculus(2)
    du, dv = calc.dgen("u"), calc.dgen("v")
    zero_forms = [calc.one(), calc.gen("u"), calc.gen("v"),
                  calc.gen("u", -1), calc.gen("v", -1)]
    import itertools

    for d1, d2, d3 in itertools.product([du, dv], repeat=3):
        for a, b in itertools.product(zero_forms, repeat=2):
            assert (a * d1 * b * d2 * d3).is_zero()


def test_all_torus_2forms_closed():
    rng = random.Random(4)
    calc = torus_calculus(3)
    du, dv = calc.dgen("u"), calc.dgen("v")
    for _ in range(30):
        a = calc.element([("u", rng.randint(-2, 2)), ("v", rng.randint(-2, 2))],
                         rng.choice([1, -2, 3]))
        b = calc.element([("u", rng.randint(-2, 2)), ("v", rng.randint(-2, 2))])
        x = a * rng.choice([du, dv]) * b * rng.choice([du, dv])
        assert calc.d(x).is_zero()


def test_d_squared_zero_randomized(torus2, torus3, cuntz2, cuntz3):
    rng = random.Random(9)
    for model in (torus2, torus3, cuntz2, cuntz3):
        calc = model.calculus
        for _ in range(40):
            x = model.random_form(rng, 1)
            assert calc.d(calc.d(x)).is_zero()


def test_graded_leibniz_randomized(torus3, cuntz2):
    rng = random.Random(10)
    for model in (torus3, cuntz2):
        calc = model.calculus
        for _ in range(40):
            x = model.random_form(rng, rng.randint(0, 1))
            y = model.random_form(rng, rng.randint(0, 1))
            try:
                sign = (-1) ** x.degree()
            except ValueError:
                continue    # inhomogeneous; Leibniz applies per component
            assert calc.d(x * y) == calc.d(x) * y + sign * (x * calc.d(y))


def test_cuntz_differential_relations():
    calc = cuntz_calculus(2)
    s = [calc.gen("s1"), calc.gen("s2")]
    st = [calc.gen("s1*"), calc.gen("s2*")]
    ds = [calc.dgen("s1"), calc.dgen("s2")]
    dst = [calc.dgen("s1*"), calc.dgen("s2*")]
    for i in range(2):
        for j in range(2):
            assert (dst[i] * s[j] + st[i] * ds[j]).is_zero()
    total = calc.zero()
    for i in range(2):
        total = total + ds[i] * st[i] + s[i] * dst[i]
    assert total.is_zero()


def test_cuntz_omega_closed(cuntz2, cuntz3):
    for model in (cuntz2, cuntz3):
        calc = model.calculus
        assert calc.d(model.omega.omega).is_zero()


def test_normalize_form_idempotent_preserves_degree(torus2):
    rng = random.Random(2)
    calc = torus2.calculus
    for _ in range(30):
        x = torus2.random_form(rng, 2)
        renorm = Element(calc.system, dict(x.terms))
        assert renorm == x
        assert set(renorm.degrees()) <= {0, 1, 2}


def test_generator_names_must_be_unique():
    from ncham.forms import CalculusPresentation
    from ncham.algebra import GeneratorSymbol

    with pytest.raises(ValueError, match="generator names must be unique"):
        CalculusPresentation([GeneratorSymbol("a"), GeneratorSymbol("a")],
                             [], [])


def test_algebra_rule_may_not_name_a_differential():
    from ncham.forms import CalculusPresentation
    from ncham.algebra import GeneratorSymbol, RuleSpec

    gens = [GeneratorSymbol("a"), GeneratorSymbol("b")]
    for rule in (RuleSpec.make([("b", 1), ("da", 1)], [(1, [("da", 1), ("b", 1)])]),
                 RuleSpec.make([("b", 1), ("a", 1)], [(1, [("da", 1)])])):
        with pytest.raises(ValueError, match="names the differential da"):
            CalculusPresentation(gens, [rule], [])
    # the same rule is a form rule
    calc = CalculusPresentation(gens, [], [RuleSpec.make(
        [("b", 1), ("da", 1)], [(1, [("da", 1), ("b", 1)])])])
    assert calc.gen("b") * calc.dgen("a") == calc.dgen("a") * calc.gen("b")
