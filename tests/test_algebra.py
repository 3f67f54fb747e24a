"""Words, rewriting, and normal forms on the built-in presentations."""

import random
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from randomized_reducer import reduce_word_randomized
from test_leibniz import reference_sort_reduce

from ncham.algebra import (GeneratorSymbol, ReductionBudgetExceeded,
                           RewriteRule, RuleSpec, SortTable,
                           UnknownGeneratorError, check_local_confluence)
from ncham.exprparse import load_presentation, parse_expression
from ncham.forms import CalculusPresentation
from ncham.models import build_model, cuntz_calculus, torus_calculus
from ncham.polynomials import Poly
from ncham.scalars import CycScalar, power, q_power


# -- independent oracle for the torus: bubble sort with q bookkeeping -------

def torus_oracle(letters, p):
    """Normalize a list of ('u'|'v', +-1) letters by pairwise swaps.

    Swapping v^a past u^b costs q^(-ab); adjacent inverse pairs cancel.
    Returns (q-exponent, u-exponent, v-exponent).
    """
    letters = list(letters)
    qexp = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (g1, e1), (g2, e2) = letters[i], letters[i + 1]
            if g1 == g2 and e1 == -e2:
                del letters[i:i + 2]
                changed = True
                break
            if g1 == "v" and g2 == "u":
                qexp -= e1 * e2
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
                break
    return (qexp % p, sum(e for g, e in letters if g == "u"),
            sum(e for g, e in letters if g == "v"))


def torus_monomial(calc, a, b, coeff=1):
    return calc.element([("u", a), ("v", b)], coeff)


def test_torus_commutation_rule():
    calc = torus_calculus(2)
    u, v = calc.gen("u"), calc.gen("v")
    assert v * u == -(u * v)                      # q^-1 = -1 at p = 2
    assert (u * u).commutator(v).is_zero()        # u^2 is central
    assert calc.gen("u") * calc.one() == calc.gen("u")


def test_torus_power_law_against_oracle():
    rng = random.Random(3)
    for p in (1, 2, 3, 5):
        calc = torus_calculus(p)
        for _ in range(60):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            prod = torus_monomial(calc, a, b) * torus_monomial(calc, c, d)
            letters = ([("u", 1)] * max(a, 0) + [("u", -1)] * max(-a, 0)
                       + [("v", 1)] * max(b, 0) + [("v", -1)] * max(-b, 0)
                       + [("u", 1)] * max(c, 0) + [("u", -1)] * max(-c, 0)
                       + [("v", 1)] * max(d, 0) + [("v", -1)] * max(-d, 0))
            k, ue, ve = torus_oracle(letters, p)
            expected = torus_monomial(calc, ue, ve, q_power(p, k))
            assert prod == expected


def test_torus_sort_table_against_the_twisted_group_algebra():
    """The closed form of the twisted group algebra of Z^2 (Rieffel 1981):
    u^a v^b u^c v^d = q^(-r b c) u^(a+c) v^(b+d) with q = e^(2 pi i r/p),
    exactly, for every exponent in [-3, 3] and each root r coprime to p."""
    span = range(-3, 4)
    for p in (1, 2, 3, 5, 32):
        for r in (1, 2):
            if gcd(p, r) != 1:
                continue
            calc = torus_calculus(p, r)
            system = calc.system
            assert system._sort_table is not None
            for a, b, c, d in product(span, repeat=4):
                prod = (torus_monomial(calc, a, b)
                        * torus_monomial(calc, c, d))
                word = system.encode_word([("u", a + c), ("v", b + d)])
                assert prod.terms == {word: q_power(p, -r * b * c)}, (
                    p, r, a, b, c, d)


def test_torus_monomial_commutation_exact():
    # normalize(u^a v^b u^c v^d) picks up exactly q^(-bc)
    for p in (2, 3):
        calc = torus_calculus(p)
        for a, b, c, d in [(1, 1, 1, 1), (2, -1, 1, 2), (-1, 2, -2, 1)]:
            lhs = torus_monomial(calc, a, b) * torus_monomial(calc, c, d)
            rhs = torus_monomial(calc, a + c, b + d, q_power(p, -b * c))
            assert lhs == rhs


FOREIGN_OPERANDS = {"u + E12": lambda u, e12: u + e12,
                    "E12 + u": lambda u, e12: e12 + u,
                    "u * E12": lambda u, e12: u * e12,
                    "u * 1.5": lambda u, e12: u * 1.5}


@pytest.mark.parametrize("op", FOREIGN_OPERANDS.values(), ids=FOREIGN_OPERANDS)
def test_foreign_operands_raise_type_error(op):
    """An Element leaves a foreign operand to Python, which raises
    TypeError, as `E12 * u` always did."""
    u = torus_calculus(2).gen("u")
    e12 = build_model("matrix:n=2").namespace()["E12"]
    with pytest.raises(TypeError, match="unsupported operand"):
        op(u, e12)


# a form of each type, and the model whose derivations are of each type
FORMS = {"Element": ("torus:p=3", "u"), "TensorForm": ("matrix:n=2", "E12"),
         "BigradedForm": ("polymat:D=3", "x * E12")}
DERIVATIONS = {"PresentedDerivation": "torus:p=3",
               "PresentedDerivation-cuntz": "cuntz:n=2",
               "MatrixDerivation": "matrix:n=2",
               "MixedDerivation": "polymat:D=3"}


@pytest.mark.parametrize("desc, expr", FORMS.values(), ids=FORMS)
def test_a_failed_form_subtraction_names_minus(desc, expr):
    model = build_model(desc)
    form = parse_expression(expr, model)
    theta = model.random_derivation(random.Random(1))
    name, theta_name = type(form).__name__, type(theta).__name__
    foreign = [1.5, theta] if name == "Element" else [1, 1.5, theta]
    for other in foreign:
        with pytest.raises(TypeError, match="for -: '%s' and '%s'"
                           % (name, type(other).__name__)):
            form - other
    with pytest.raises(TypeError, match="for -: '%s' and '%s'"
                       % (theta_name, name)):
        theta - form
    assert (form - form).is_zero()


@pytest.mark.parametrize("desc, expr", [("torus:p=2", "u"), ("matrix:n=2", "E12"),
                                        ("polymat:D=3", "x")],
                         ids=["Element", "TensorForm", "BigradedForm"])
def test_a_form_minus_an_operand_without_unary_minus_names_minus(desc, expr):
    """A str has no unary minus; the subtraction still fails naming -."""
    form = parse_expression(expr, build_model(desc))
    with pytest.raises(TypeError, match="for -: '%s' and 'str'"
                       % type(form).__name__):
        form - "x"


def test_an_element_minus_a_scalar_still_works():
    u = torus_calculus(3).gen("u")
    assert u - 1 == u + (-1) and 1 - u == -u + 1
    assert u - Fraction(1, 2) == u + Fraction(-1, 2)
    assert u - q_power(3, 1) == u + (-q_power(3, 1))


@pytest.mark.parametrize("desc", DERIVATIONS.values(), ids=DERIVATIONS)
def test_a_failed_derivation_subtraction_names_minus(desc):
    model = build_model(desc)
    theta = model.random_derivation(random.Random(1))
    name = type(theta).__name__
    for other in (1, 1.5):
        with pytest.raises(TypeError, match="for -: '%s' and '%s'"
                           % (name, type(other).__name__)):
            theta - other
    assert (theta - theta).is_zero()


@pytest.mark.parametrize("desc, scalar", [("torus:p=3", q_power(3, 1)),
                                          ("polymat:D=3", Poly.x())],
                         ids=["CycScalar", "Poly"])
def test_a_failed_scalar_subtraction_names_minus(desc, scalar):
    theta = build_model(desc).random_derivation(random.Random(1))
    name = type(scalar).__name__
    with pytest.raises(TypeError, match="for -: '%s' and '%s'"
                       % (type(theta).__name__, name)):
        theta - scalar
    with pytest.raises(TypeError, match="for -: 'float' and '%s'" % name):
        1.5 - scalar
    assert 2 - scalar == -(scalar - 2)


@pytest.mark.parametrize("desc", DERIVATIONS.values(), ids=DERIVATIONS)
def test_a_derivation_takes_only_exact_scalars(desc):
    model = build_model(desc)
    theta = model.random_derivation(random.Random(1))
    with pytest.raises(TypeError, match="for \\*: 'float' and '%s'"
                       % type(theta).__name__):
        1.5 * theta
    # the scalars of the solver's combo and of the random pools still scale
    assert (2 * theta - theta - theta).is_zero()
    assert ((-1) * theta + theta).is_zero()
    third = Fraction(1, 3)
    assert (third * theta + 2 * third * theta - theta).is_zero()
    combo = model.backend.combo([third, 0, -1], [theta, theta, theta])
    assert (combo + 2 * third * theta).is_zero()


def test_mul_associative_randomized():
    rng = random.Random(13)
    calc = torus_calculus(3)
    cc = cuntz_calculus(2)
    cuntz_gens = ["s1", "s2", "s1*", "s2*"]

    def rand_torus(rng):
        out = calc.zero()
        for _ in range(rng.randint(1, 2)):
            out = out + torus_monomial(calc, rng.randint(-2, 2),
                                       rng.randint(-2, 2),
                                       rng.choice([1, 2, -1]))
        return out

    def rand_cuntz(rng):
        out = cc.zero()
        for _ in range(rng.randint(1, 2)):
            t = cc.scalar(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(0, 3)):
                t = t * cc.gen(rng.choice(cuntz_gens))
            out = out + t
        return out

    for maker in (rand_torus, rand_cuntz):
        for _ in range(40):
            x, y, z = maker(rng), maker(rng), maker(rng)
            assert (x * y) * z == x * (y * z)


def test_cuntz_delta_relations():
    cc = cuntz_calculus(2)
    s1, s2 = cc.gen("s1"), cc.gen("s2")
    s1s, s2s = cc.gen("s1*"), cc.gen("s2*")
    assert s1s * s1 == cc.one()
    assert (s1s * s2).is_zero()
    assert s2 * s2s == cc.one() - s1 * s1s
    # s1 s1* is a normal word, not reducible
    prod = s1 * s1s
    assert len(prod.terms) == 1 and list(prod.terms.values())[0] == 1


def test_cuntz_normal_form_shape():
    """Normal words are s_mu s_nu* with no s_n s_n* junction."""
    cc = cuntz_calculus(3)
    names = ["s1", "s2", "s3", "s1*", "s2*", "s3*"]
    rng = random.Random(5)
    table = cc.system.table
    for _ in range(80):
        el = cc.one()
        for _ in range(rng.randint(1, 5)):
            el = el * cc.gen(rng.choice(names))
        for word in el.terms:
            kinds = [table.letters[li].base.endswith("*") for li in word]
            assert kinds == sorted(kinds)   # unstarred block then starred
            for i in range(len(word) - 1):
                pair = (table.letters[word[i]].base,
                        table.letters[word[i + 1]].base)
                assert pair != ("s3", "s3*")


def _assert_strategy_independent(calc, rng, count):
    """On `count` seeded words: reduce_word is idempotent and agrees with
    the randomized reducer over three seeds, and with the sort path and
    the rewriting path whenever the system sorts."""
    system = calc.system
    names = [g.name for g in calc.generators]
    names = names + ["d" + n for n in names]   # include form letters
    for _ in range(count):
        factors = [(rng.choice(names), rng.choice([1, 1, -1]))
                   for _ in range(rng.randint(2, 6))]
        invertible = {g.name: g.invertible for g in calc.generators}
        factors = [(n, e) for n, e in factors
                   if e > 0 or invertible.get(n, False)]
        try:
            word = system.encode_word(factors)
        except ValueError:
            continue
        nf = system.reduce_word(word)
        renf = {}
        for w, c in nf.items():
            for w2, c2 in system.reduce_word(w).items():
                renf[w2] = renf.get(w2, system.zero()) + c * c2
        assert {w: c for w, c in renf.items() if c} == nf
        for trial in range(3):
            assert reduce_word_randomized(
                system, word, random.Random(trial)) == nf
        if system._sort_table is not None:
            assert system._sort_table.reduce(word) == nf
            cached = system._nf_cache
            system._nf_cache = {}
            assert system.rewrite_word(word) == nf
            system._nf_cache = cached


def test_normalize_idempotent_and_strategy_independent():
    rng = random.Random(11)
    for calc in (torus_calculus(3), cuntz_calculus(2)):
        _assert_strategy_independent(calc, rng, 60)


def _readme_text():
    """The presentation file shown in the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Presentation files", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def _file_calculus(tmp_path, text):
    path = tmp_path / "rules.pres"
    path.write_text(text)
    return load_presentation(str(path)).calculus


def _readme_presentation(tmp_path):
    return _file_calculus(tmp_path, _readme_text())


# The torus relations under an order that interleaves differentials with
# generators, each rule oriented to decrease in it.
INTERLEAVED = """\
cyclotomic 3
generator u invertible
generator v invertible
order du < u < dv < v
rule v u -> q^-1 u v
frule dv u -> q^-1 u dv
frule v du -> q^-1 du v
frule u du -> du u
frule v dv -> dv v
frule dv du -> -q^-1 du dv
frule du du -> 0
frule dv dv -> 0
"""


# q-commutation rules whose swap scalars are no signed powers of q
GENERAL_SCALARS = """\
cyclotomic 3
generator u invertible
generator v invertible
rule v u -> 2 u v
frule u dv -> 1/3 dv u
frule v du -> -3/2 q du v
frule u du -> du u
frule v dv -> 5 dv v
frule du dv -> 2 q dv du
frule du du -> 0
frule dv dv -> 0
"""


def _interleaved_presentation(tmp_path):
    path = tmp_path / "interleaved.pres"
    path.write_text(INTERLEAVED)
    return load_presentation(str(path)).calculus


@pytest.mark.parametrize("build, sorts", [
    (lambda tmp_path: torus_calculus(1), True),
    (lambda tmp_path: torus_calculus(2), True),
    (lambda tmp_path: torus_calculus(5), True),
    (lambda tmp_path: cuntz_calculus(3), False),
    (_readme_presentation, True),
    (_interleaved_presentation, True),
], ids=["torus-p1", "torus-p2", "torus-p5", "cuntz-n3", "readme-file",
        "interleaved-order-file"])
def test_randomized_reducer_agrees_with_reduce_word(build, sorts, tmp_path):
    calc = build(tmp_path)
    # the diamond lemma promises one normal form on confluent rules only
    assert check_local_confluence(calc).all_joinable
    assert (calc.system._sort_table is not None) == sorts
    _assert_strategy_independent(calc, random.Random(5), 60)


# -- normal forms by sorting ---------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda tmp_path: torus_calculus(1),
    lambda tmp_path: torus_calculus(2),
    lambda tmp_path: torus_calculus(3),
    lambda tmp_path: torus_calculus(5),
    lambda tmp_path: torus_calculus(32),
    _readme_presentation,
    lambda tmp_path: _file_calculus(tmp_path, GENERAL_SCALARS),
], ids=["torus-p1", "torus-p2", "torus-p3", "torus-p5", "torus-p32",
        "readme-file", "general-scalar-file"])
def test_sort_path_agrees_with_rewriting(build, tmp_path):
    """3,000 seeded words over every letter, inverses and differentials
    included: the sorted normal form is the rewritten one, and the one the
    per-pair count gave.  The cache holds only rewritten words, so neither
    path sees the other's results."""
    system = build(tmp_path).system
    table = system._sort_table
    assert table is not None
    letters = range(len(system.table.letters))
    rng = random.Random(len(letters) * 1000 + system.p)
    kinds = set()
    for _ in range(3000):
        word = system.table.concat(*[(rng.choice(letters),)
                                     for _ in range(rng.randint(0, 16))])
        kinds.update(system.table.letters[li] for li in word)
        nf = table.reduce(word)
        assert nf == system.rewrite_word(word), system.word_str(word)
        assert nf == reference_sort_reduce(system, word), system.word_str(word)
    assert kinds == set(system.table.letters)


def _inversions(word):
    """Pairs of letters out of precedence order: a bound on the swaps that
    rewriting the word takes."""
    counts = {}
    out = 0
    for y in word:
        out += sum(c for x, c in counts.items() if x > y)
        counts[y] = counts.get(y, 0) + 1
    return out


@pytest.mark.parametrize("build", [
    lambda tmp_path: torus_calculus(1),
    lambda tmp_path: torus_calculus(2),
    lambda tmp_path: torus_calculus(3),
    lambda tmp_path: torus_calculus(32),
    _readme_presentation,
    lambda tmp_path: _file_calculus(tmp_path, GENERAL_SCALARS),
], ids=["torus-p1", "torus-p2", "torus-p3", "torus-p32", "readme-file",
        "general-scalar-file"])
def test_sort_path_agrees_with_rewriting_on_long_runs(build, tmp_path):
    """150 seeded words made of up to four powers g^k, k of either sign
    with |k| <= 1 + 8p like the words of a B=8 torus ansatz, and up to two
    differentials: the sorted normal form is the rewritten one, and the one
    the per-pair count gave.  Rewriting takes one step per swap and caches
    every word on the way, so words with more than 2,000 inversions are
    drawn again and the cache is emptied after each word."""
    system = build(tmp_path).system
    table = system._sort_table
    assert table is not None
    letters = system.table.letters
    gens = [lt.base for lt in letters if not lt.diff and lt.exp == 1]
    diffs = [lt.display for lt in letters if lt.diff]
    top = 1 + 8 * system.p
    rng = random.Random(top)
    kinds, longest, kept = set(), 0, 0
    while kept < 150:
        factors = [(rng.choice(gens), rng.randint(-top, top))
                   for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 2)):
            factors.insert(rng.randint(0, len(factors)),
                           (rng.choice(diffs), 1))
        word = system.encode_word(factors)
        if _inversions(word) > 2000:
            continue
        kept += 1
        kinds.update(letters[li] for li in word)
        run = 0
        for i, li in enumerate(word):
            run = run + 1 if i and word[i - 1] == li else 1
            longest = max(longest, run)
        nf = table.reduce(word)
        assert nf == system.rewrite_word(word), system.word_str(word)
        assert nf == reference_sort_reduce(system, word), system.word_str(word)
        system._nf_cache.clear()
    assert kinds == set(letters)
    assert longest > 8 * system.p


def test_sort_path_takes_one_power_per_general_swap_scalar(tmp_path,
                                                          monkeypatch):
    """A swap scalar that is no +-q^k is raised to its total count once, not
    once per run: (v u)^12 swaps v past u in 12 runs for one power of 2."""
    system = _file_calculus(tmp_path, GENERAL_SCALARS).system
    table = system._sort_table
    powers = []
    monkeypatch.setattr(CycScalar, "__pow__", lambda c, k: powers.append(k)
                        or power(c, k, system.one()))
    word = system.encode_word([("v", 1), ("u", 1)] * 12)
    assert table.reduce(word) == reference_sort_reduce(system, word) \
        == {system.encode_word([("u", 12), ("v", 12)]): system.scalar(2 ** 78)}
    assert powers == [78, 78]       # one here, one in the reference
    # one power per distinct scalar met, whatever the runs
    rng = random.Random(7)
    letters = range(len(system.table.letters))
    scalars = {c for row in table.above for _, _, _, c in row} - {None}
    for _ in range(200):
        word = system.table.concat(*[(rng.choice(letters),) * rng.randint(1, 3)
                                     for _ in range(rng.randint(0, 12))])
        del powers[:]
        table.reduce(word)
        assert len(powers) <= len(scalars)


def test_no_sort_table_off_q_commutation_rules(tmp_path):
    assert cuntz_calculus(3).system._sort_table is None
    # b a -> a b alone leaves the differentials without swap rules
    assert _file_calculus(tmp_path, "generator a\ngenerator b\n"
                          "rule b a -> a b\n").system._sort_table is None
    # u^-1 apart from u: no swap may involve the letter between them
    assert _file_calculus(tmp_path, "generator u invertible\ngenerator v\n"
                          "order du < dv < u < v < u^-1\n"
                          ).system._sort_table is None


def test_no_sort_table_when_inverse_letters_are_apart():
    """The swaps of all letter pairs with consistent scalars, once with u^-1
    next to u and once with v between them: only the first sorts."""
    gens = [GeneratorSymbol("u", invertible=True), GeneratorSymbol("v")]
    for order, sorts in ((["dv", "du", "u", "u^-1", "v"], True),
                         (["dv", "du", "u", "v", "u^-1"], False)):
        system = CalculusPresentation(gens, [], [], letter_order=order).system
        idx = system.table.by_display
        for x in order:
            for y in order[:order.index(x)]:
                if {x, y} != {"u", "u^-1"}:
                    system.rules.append(RewriteRule(
                        (idx[x], idx[y]), {(idx[y], idx[x]): system.one()}))
        assert (SortTable.compile(system) is not None) == sorts


def test_no_sort_table_on_a_wrong_declared_variant(tmp_path):
    """The README file declaring v u^-1 -> u^-1 v, which should carry q as
    v u -> q^-1 u v implies: the rules are not confluent and keep the
    rewriting path.  With q they sort."""
    calc = _file_calculus(tmp_path, _readme_text() + "rule v u^-1 -> u^-1 v\n")
    assert not check_local_confluence(calc).all_joinable
    assert calc.system._sort_table is None
    calc = _file_calculus(tmp_path, _readme_text()
                          + "rule v u^-1 -> q u^-1 v\n")
    assert calc.system._sort_table is not None


def test_add_rule_drops_the_sort_table():
    calc = torus_calculus(3)
    system = calc.system
    word = system.encode_word([("v", 1), ("u", 1)])
    assert system._sort_table is not None
    assert system.reduce_word(word) == {word[::-1]: q_power(3, -1)}
    system.add_rule(RuleSpec.make([("u", 2)], [(1, [])]))
    assert system._sort_table is None and not system._nf_cache
    # u u -> 1 is no q-commutation: the new rule set rewrites
    calc.finish_rules()
    assert system._sort_table is None
    assert system.reduce_word(system.encode_word([("u", 3)])) \
        == {system.encode_word([("u", 1)]): system.one()}


def test_zero_rhs_coefficients_drop_and_the_empty_word_prints_1():
    calc = CalculusPresentation([GeneratorSymbol("a"), GeneratorSymbol("b")],
                                [], [])
    system = calc.system
    rule = system.add_rule(RuleSpec.make(
        [("b", 1), ("a", 1)], [(0, [("a", 1)]), (2, [("a", 1), ("b", 1)])]))
    assert rule.rhs == {system.encode_word([("a", 1), ("b", 1)]):
                        system.scalar(2)}
    assert system.word_str(()) == "1"


def test_unknown_generator():
    calc = torus_calculus(2)
    with pytest.raises(UnknownGeneratorError):
        calc.element([("w", 1)])


def test_step_budget_guards_runaway_reductions():
    gens = [GeneratorSymbol("a"), GeneratorSymbol("b")]
    rules = [RuleSpec.make([("b", 1), ("a", 1)], [(1, [("a", 1), ("b", 1)])])]
    pres = CalculusPresentation(gens, rules, [], p=1)
    pres.system.step_budget = 10
    with pytest.raises(ReductionBudgetExceeded):
        pres.element([("b", 6), ("a", 6)])     # needs 36 swaps > 10
    roomy = CalculusPresentation(gens, rules, [], p=1)
    assert roomy.system.step_budget == 10 ** 6
    assert roomy.element([("b", 6), ("a", 6)]) == roomy.element(
        [("a", 6), ("b", 6)])


def test_rule_must_decrease():
    gens = [GeneratorSymbol("a"), GeneratorSymbol("b")]
    with pytest.raises(ValueError):
        CalculusPresentation(gens, [RuleSpec.make(
            [("a", 1), ("b", 1)], [(1, [("b", 1), ("a", 1)])])], [], p=1)
