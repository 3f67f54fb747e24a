"""The one Leibniz engine behind d, apply, iprod and lie, junction-only word
concatenation, and powers of elements.

The engine sums every raw word of a call in one dict and normalizes once;
the reference here is the per-letter definition, pre * X * suf with a
normalization at every product, written out independently of the engine.
"""

import random
from fractions import Fraction

import pytest

from ncham.algebra import (Element, GeneratorSymbol, RuleSpec,
                           UnknownGeneratorError)
from ncham.forms import CalculusPresentation
from ncham.scalars import q_power

MODELS = ("torus1", "torus2", "torus3", "cuntz2")


def reference_leibniz(calc, x, image, signed):
    """sum over words w, positions j: c w[:j] image(w[j]) w[j+1:], signed by
    (-1)^(differentials before j) when `signed`, one product at a time."""
    system = calc.system
    isd = system.table.is_diff
    out = calc.zero()
    for w, c in x.terms.items():
        sign = 1
        for j, li in enumerate(w):
            pre = Element(system, {w[:j]: c * sign}, normal=True)
            suf = Element(system, {w[j + 1:]: system.one()}, normal=True)
            out = out + pre * image(li) * suf
            if signed and isd[li]:
                sign = -sign
    return out


def letter_of(calc, li):
    return calc.system.table.letters[li]


def reference_d(calc, x):
    def image(li):
        lt = letter_of(calc, li)
        if lt.diff:
            return calc.zero()
        if lt.exp == 1:
            return calc.dgen(lt.base)
        ginv = calc.gen(lt.base, -1)
        return -(ginv * calc.dgen(lt.base) * ginv)
    return reference_leibniz(calc, x, image, signed=True)


def reference_image(calc, theta, li):
    """theta on an algebra letter; theta(g^-1) = -g^-1 theta(g) g^-1."""
    lt = letter_of(calc, li)
    img = theta.images[lt.base]
    if lt.exp == 1:
        return img
    ginv = calc.gen(lt.base, -1)
    return -(ginv * img * ginv)


def reference_apply(calc, theta, a):
    return reference_leibniz(calc, a, lambda li: reference_image(calc, theta, li),
                             signed=False)


def reference_iprod(calc, theta, x):
    def image(li):
        lt = letter_of(calc, li)
        return theta.images[lt.base] if lt.diff else calc.zero()
    return reference_leibniz(calc, x, image, signed=True)


def reference_lie(calc, theta, x):
    def image(li):
        lt = letter_of(calc, li)
        if lt.diff:
            return reference_d(calc, theta.images[lt.base])
        return reference_image(calc, theta, li)
    return reference_leibniz(calc, x, image, signed=False)


@pytest.mark.parametrize("name", MODELS)
def test_engine_matches_per_letter_reference(name, request):
    model = request.getfixturevalue(name)
    calc = model.calculus
    rng = random.Random(4242)
    for _ in range(12):
        x = model.random_form(rng, 2)
        theta = model.random_derivation(rng)
        assert calc.d(x) == reference_d(calc, x)
        assert theta.lie(x) == reference_lie(calc, theta, x)
        a = Element(calc.system, {w: c for w, c in x.terms.items()
                                  if not calc.system.table.word_degree(w)},
                    normal=True)
        assert theta.apply(a) == reference_apply(calc, theta, a)
        if any(calc.system.table.word_degree(w) for w in x.terms):
            assert theta.iprod(x) == reference_iprod(calc, theta, x)


@pytest.mark.parametrize("name", MODELS)
def test_substitution_table_equals_fresh_images(name, request):
    model = request.getfixturevalue(name)
    calc = model.calculus
    rng = random.Random(7)
    for _ in range(4):
        theta = model.random_derivation(rng)
        theta.lie(model.random_form(rng, 2))
        filled = 0
        for li, terms in enumerate(theta._subs):
            if terms is None:
                continue
            filled += 1
            lt = letter_of(calc, li)
            if lt.diff:
                assert terms == calc.d(theta.images[lt.base]).terms
            else:
                assert terms == reference_image(calc, theta, li).terms
        assert filled
        # a second call reuses the table: no entry is rebuilt
        before = list(theta._subs)
        theta.lie(model.random_form(rng, 2))
        assert all(new is old for old, new in zip(before, theta._subs)
                   if old is not None)


def reference_concat(table, *parts):
    """Letter by letter, cancelling against the end of the output."""
    out = []
    for part in parts:
        for li in part:
            if out and table.inverse_of.get(li) == out[-1]:
                out.pop()
            else:
                out.append(li)
    return tuple(out)


def reference_encode_word(system, factors):
    """Every factor flattened into letters, then cancelled letter by letter."""
    letters = []
    for name, exp in factors:
        if exp == 0:
            continue
        li = system.encode_letter(name, 1 if exp > 0 else -1)
        letters.extend([li] * abs(exp))
    return reference_concat(system.table, letters)


def reference_sort_reduce(system, word):
    """SortTable.reduce as it was with a count per letter pair: the swaps of
    each pair go into an array, and a second pass over the pairs turns the
    counts into a sign, an exponent and a product of the other scalars.
    The pairs and their scalars are read from the system's rules."""
    table, p = system.table, system.p
    inv = table.inverse_of
    n = len(table.letters)
    swaps = {r.lhs: c for r in system.rules for c in r.rhs.values()}
    square_zero = {r.lhs[0] for r in system.rules if not r.rhs}
    pairs = [(x, y) for x in range(n) for y in range(x) if inv.get(x) != y]
    powers = [q_power(p, k) for k in range(p)]
    signed = {}
    for k, qk in enumerate(powers):
        signed[-qk], signed[qk] = (1, k, None), (0, k, None)
    weights = [signed.get(swaps[pair], (0, 0, swaps[pair])) for pair in pairs]
    index = {pair: i for i, pair in enumerate(pairs)}
    counts, swapped = [0] * n, [0] * len(pairs)
    i = 0
    while i < len(word):
        y = word[i]
        j = i + 1
        while j < len(word) and word[j] == y:
            j += 1
        for x in range(y + 1, n):
            if (x, y) in index:
                swapped[index[x, y]] += (j - i) * counts[x]
        counts[y] += j - i
        i = j
    out = []
    for li in range(n):
        h = inv.get(li)
        if h is not None and h < li:
            continue
        k = counts[li]
        if h is not None:
            k -= counts[h]
            if k < 0:
                li, k = h, -k
        elif li in square_zero and k > 1:
            return {}
        out += [li] * k
    sign = exponent = 0
    coeff = None
    for (s, e, c), m in zip(weights, swapped):
        if m:
            if c is None:
                sign += s * m
                exponent += e * m
            else:
                coeff = c ** m if coeff is None else coeff * c ** m
    scalar = powers[exponent % p]
    if sign & 1:
        scalar = -scalar
    if coeff is not None:
        scalar = scalar * coeff
    return {tuple(out): scalar}


def test_junction_concat_matches_per_letter_reference(torus2):
    system = torus2.calculus.system
    table = system.table

    def word(*factors):
        return system.encode_word(factors)

    uv = word(("u", 1), ("v", 1))
    assert table.concat(uv, word(("v", -1), ("u", -1))) == ()
    assert table.concat(uv, word(("v", -1)), word(("u", -1), ("v", 1))) == \
        word(("v", 1))
    assert table.concat(word(("u", 2)), (), word(("u", -3), ("du", 1))) == \
        word(("u", -1), ("du", 1))
    assert table.concat(word(("u", 1), ("du", 1)), word(("u", -1))) == \
        word(("u", 1), ("du", 1), ("u", -1))

    rng = random.Random(11)
    letters = range(len(table.letters))
    for _ in range(2000):
        parts = []
        for _ in range(rng.randint(1, 4)):
            raw = [rng.choice(letters) for _ in range(rng.randint(0, 5))]
            parts.append(reference_concat(table, raw))    # reduced parts
        assert table.concat(*parts) == reference_concat(table, *parts)


def test_encode_word_reduces_letter_by_letter(torus2):
    system = torus2.calculus.system
    v = system.encode_word([("v", 1)])
    assert system.encode_word([("u", 1), ("u", -1), ("v", 1)]) == v
    assert system.encode_word([("v", 1), ("u", 2), ("u", -2)]) == v
    assert system.encode_word([("u", 1), ("v", 1), ("v", -1), ("u", -1)]) == ()


def test_encode_word_matches_the_flattened_reference(torus2):
    """Seeded factor lists with exponents in [-30, 30], each followed at
    times by inverse powers of its last factors, split differently, so
    that cancellation cascades across several adjacent factors."""
    system = torus2.calculus.system
    rng = random.Random(21)
    deep = 0
    for _ in range(1500):
        factors = []
        for _ in range(rng.randint(1, 6)):
            if factors and rng.random() < 0.4:
                undo = []
                for name, exp in factors[-rng.randint(1, len(factors)):]:
                    undo += [(name, -e) for e in _split(rng, exp)]
                factors += undo[::-1]
            elif rng.random() < 0.15:
                factors.append((rng.choice(("du", "dv")), rng.randint(0, 2)))
            else:
                factors.append((rng.choice("uv"), rng.randint(-30, 30)))
        # du and dv have no negative powers
        factors = [(n, e) for n, e in factors if e >= 0 or n in ("u", "v")]
        word = system.encode_word(factors)
        assert word == reference_encode_word(system, factors), factors
        # at least 30 inverse pairs cancelled
        deep += sum(abs(e) for _, e in factors) - len(word) >= 60
    assert deep > 100
    # a differential has no inverse letter
    for name in ("du", "dv"):
        with pytest.raises(UnknownGeneratorError,
                           match=r"unknown letter '%s'\^-1" % name):
            system.encode_word([("u", 2), (name, -1)])


def _split(rng, exp):
    """exp as a sum of parts of its sign, in random sizes."""
    sign, left, parts = (1 if exp > 0 else -1), abs(exp), []
    while left:
        k = rng.randint(1, left)
        parts.append(sign * k)
        left -= k
    return parts


@pytest.mark.parametrize("name", ("torus3", "cuntz2"))
def test_power_equals_repeated_product(name, request):
    model = request.getfixturevalue(name)
    calc = model.calculus
    rng = random.Random(5)
    for _ in range(3):
        x = model.random_form(rng, 1)
        product = calc.one()
        for k in range(10):
            assert x ** k == product
            product = product * x


def test_budget_error_names_word_and_rule():
    from ncham.algebra import ReductionBudgetExceeded

    gens = [GeneratorSymbol("a"), GeneratorSymbol("b")]
    rules = [RuleSpec.make([("b", 1), ("a", 1)], [(1, [("a", 1), ("b", 1)])])]
    pres = CalculusPresentation(gens, rules, [], p=1)
    pres.system.step_budget = 10
    with pytest.raises(ReductionBudgetExceeded) as info:
        pres.element([("b", 6), ("a", 6)])
    assert "reducing b^6 a^6" in str(info.value)
    assert "last rule applied: b a ->" in str(info.value)


# -- Leibniz by runs on q-commutation calculi ----------------------------------

def _run_calculus(kind, tmp_path):
    """A calculus that normalizes by sorting: the torus at p = kind, or a
    presentation file."""
    # imported here: test_algebra imports this module when it loads
    from test_algebra import GENERAL_SCALARS, _file_calculus, _readme_text

    from ncham.models import torus_calculus

    if isinstance(kind, int):
        return torus_calculus(kind)
    if kind == "readme-file":
        return _file_calculus(tmp_path, _readme_text())
    if kind == "general-scalar-file":
        return _file_calculus(tmp_path, GENERAL_SCALARS)
    # no square-zero rule: du^3 survives, so iprod meets runs of differentials
    text = "".join(line for line in GENERAL_SCALARS.splitlines(True)
                   if not line.endswith("-> 0\n"))
    assert text.count("frule") == GENERAL_SCALARS.count("frule") - 2
    return _file_calculus(tmp_path, text)


def _longest_runs(word, isd):
    """(longest run of one letter, longest run of one differential)."""
    longest = diff = run = 0
    for i, li in enumerate(word):
        run = run + 1 if i and word[i - 1] == li else 1
        longest = max(longest, run)
        if isd[li]:
            diff = max(diff, run)
    return longest, diff


@pytest.mark.parametrize("kind", [1, 2, 3, 5, 32, "readme-file",
                                  "general-scalar-file", "no-square-zero-file"])
def test_runs_match_per_letter_reference(kind, tmp_path):
    """Seeded forms made of up to four powers g^k, |k| <= 1 + 8p like the
    words of a B=8 torus ansatz, and differentials, some repeated: d, lie,
    apply and iprod, which expand a run g^r as one word times a q-number,
    equal the per-letter reference, which expands every letter."""
    from ncham.cartan import PresentedDerivation

    calc = _run_calculus(kind, tmp_path)
    system = calc.system
    assert system._sort_table is not None
    isd = system.table.is_diff
    gens = [g.name for g in calc.generators]
    top = 1 + 8 * system.p
    rng = random.Random(top * 31 + len(str(kind)))

    def scalar():
        return rng.choice([-2, -1, 1, 3]) * q_power(system.p, rng.randrange(system.p))

    def monomial(bound):
        return calc.element([(g, rng.randint(-bound, bound)) for g in gens],
                            scalar())

    longest = diff_runs = checks = 0
    while checks < 24:
        x = calc.zero()
        for _ in range(rng.randint(1, 2)):
            factors = [(rng.choice(gens), rng.randint(-top, top))
                       for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 3)):
                factors.insert(rng.randint(0, len(factors)),
                               ("d" + rng.choice(gens), 1))
            x = x + calc.element(factors, scalar())
        if x.is_zero():
            continue
        for w in x.terms:
            run, diff = _longest_runs(w, isd)
            longest = max(longest, run)
            diff_runs += diff > 1
        theta = PresentedDerivation(
            calc, {g: monomial(3) + monomial(2) for g in gens})
        assert calc.d(x) == reference_d(calc, x)
        assert theta.lie(x) == reference_lie(calc, theta, x)
        a = Element(system, {w: c for w, c in x.terms.items()
                             if not system.table.word_degree(w)}, normal=True)
        assert theta.apply(a) == reference_apply(calc, theta, a)
        if any(map(system.table.word_degree, x.terms)):
            assert theta.iprod(x) == reference_iprod(calc, theta, x)
        checks += 1
    assert longest > 8 * system.p
    # the runs of a differential, which flip the sign of each copy, occur
    # exactly when no square-zero rule removes them
    assert (diff_runs > 0) == (kind == "no-square-zero-file")


def _counting_sorts(monkeypatch):
    """Record every word SortTable.reduce sorts."""
    from ncham.algebra import SortTable

    sorted_words = []
    reduce = SortTable.reduce

    def counted(self, word):
        sorted_words.append(word)
        return reduce(self, word)
    monkeypatch.setattr(SortTable, "reduce", counted)
    return sorted_words


def test_a_run_costs_one_normal_form(monkeypatch):
    """On torus:p=3 a run g^r and one image term make one raw word, so a
    cold cache sorts at most one word per run and image term."""
    from ncham.cartan import PresentedDerivation
    from ncham.models import torus_calculus

    calc = torus_calculus(3)
    system = calc.system
    x = calc.element([("u", 40), ("v", -40)])
    y = calc.element([("u", 7), ("v", -5), ("du", 1)])
    theta = PresentedDerivation(calc, {"u": calc.element([("u", 1), ("v", 3)]),
                                       "v": calc.element([("u", -3), ("v", 1)], 2)})
    lie = "3q dv u^8 v^-3 + (10 + 10q) du u^4 v^-5 + (-8 - 8q) du u^7 v^-2"
    assert str(theta.lie(y)) == lie     # fills theta's letter images
    sorted_words = _counting_sorts(monkeypatch)
    system._nf_cache.clear()
    assert str(calc.d(x)) == "-40q dv u^40 v^-41 + 40 du u^39 v^-40"
    # u^40 and v^-40, one image term each
    assert len(sorted_words) <= 2
    del sorted_words[:]
    system._nf_cache.clear()
    assert str(theta.lie(y)) == lie
    # u^7 and v^-5 one image term each, du the two of d(u v^3)
    assert len(sorted_words) <= 4


def _per_letter_raw(system, x, image, signed):
    """The raw words of the per-letter expansion, in the order it makes
    them, before normalization."""
    concat, isd = system.table.concat, system.table.is_diff
    raw = {}
    for w, c in x.terms.items():
        for j, li in enumerate(w):
            for iw, ic in (image(li) or {}).items():
                key = concat(w[:j], iw, w[j + 1:])
                raw[key] = raw[key] + c * ic if key in raw else c * ic
            if signed and isd[li]:
                c = -c
    return raw


def test_no_run_grouping_without_a_sort_table(monkeypatch):
    """On the Cuntz calculus, which rewrites, every letter is expanded on
    its own: the engine normalizes exactly the raw words of the per-letter
    expansion, in the same order."""
    from ncham.models import build_cuntz

    cuntz3 = build_cuntz(3)
    calc = cuntz3.calculus
    system = calc.system
    assert system._sort_table is None
    seen = []
    normalize_terms = system.normalize_terms

    def recording(terms):
        seen.append(dict(terms))
        return normalize_terms(terms)
    rng = random.Random(17)
    for _ in range(12):
        x = cuntz3.random_form(rng, 2)
        x = x * x       # repeated letters, as in runs
        theta = cuntz3.random_derivation(rng)
        theta.lie(x)    # fills theta's letter images
        table = system.table

        def iprod_image(li):
            if table.is_diff[li]:
                return theta.images[table.letters[li].base].terms
        expected = [(calc.d, calc._d_of_letter.__getitem__, True),
                    (theta.lie, theta._substitution, False)]
        if any(map(table.word_degree, x.terms)):
            expected.append((theta.iprod, iprod_image, True))
        for op, image, signed in expected:
            monkeypatch.setattr(system, "normalize_terms", recording)
            op(x)
            monkeypatch.undo()
            raw = _per_letter_raw(system, x, image, signed)
            assert seen[0] == raw
            assert list(seen[0]) == list(raw)
            del seen[:]


# -- one inverse-letter image for d and L ---------------------------------------

def test_d_and_lie_of_inverse_letters_by_hand(tmp_path):
    """On the README file (q = -1: v u = -u v, u dv = -dv u, and u commutes
    with du), d and L_xa take g^-1 to -g^-1 D(g) g^-1 through the one
    `letter_image`.  With xa(u) = 2 u^3 v^2 and xa(v) = -2 u^2 v^3,
    xa(u^-1) = -u^-1 (2 u^3 v^2) u^-1 = -2 u v^2, every u^-1 of u^-3 adds
    -2 u^-1 v^2, and xa(u^-2 v) = -4 v^2 v + u^-2 (-2 u^2 v^3)."""
    from test_algebra import _file_calculus, _readme_text

    from ncham.cartan import PresentedDerivation

    calc = _file_calculus(tmp_path, _readme_text())
    xa = PresentedDerivation(calc, {"u": calc.element([("u", 3), ("v", 2)], 2),
                                    "v": calc.element([("u", 2), ("v", 3)], -2)})
    cases = {"u^-1": ([("u", -1)], "-du u^-2", "-2 u v^2"),
             "u^-3": ([("u", -3)], "-3 du u^-4", "-6 u^-1 v^2"),
             "u^-2 v": ([("u", -2), ("v", 1)], "-2 du u^-3 v + dv u^-2",
                        "-6 v^3")}
    for name, (factors, d_want, lie_want) in cases.items():
        x = calc.element(factors)
        assert (str(calc.d(x)), str(xa.lie(x))) == (d_want, lie_want), name
        assert calc.d(x) == reference_d(calc, x)
        assert xa.lie(x) == reference_lie(calc, xa, x)
    # both tables hold letter_image's terms for u^-1
    uinv = calc.system.encode_letter("u", -1)
    assert calc._d_of_letter[uinv] == calc.letter_image(uinv, calc.dgen("u"))
    assert xa._subs[uinv] == calc.letter_image(uinv, xa.images["u"])
    assert str(Element(calc.system, xa._subs[uinv], normal=True)) == "-2 u v^2"


def _unit_run_calculus(sort):
    """u, v, w over Q with dw < dv < du < u < v < w: v u -> 2 u v and
    w u -> 1/2 u w, every other pair swaps with +-1, and the differentials
    square to zero.  A sort table compiles for it, unless `sort` is off."""
    names = ["u", "v", "w"]
    gens = [GeneratorSymbol(n) for n in names]
    order = ["dw", "dv", "du", "u", "v", "w"]

    def swap(x, y, c):
        return RuleSpec.make([(x, 1), (y, 1)], [(c, [(y, 1), (x, 1)])])
    algebra = [swap("v", "u", 2), swap("w", "u", Fraction(1, 2)),
               swap("w", "v", 1)]
    forms = [swap(x, y, -1) for x, y in (("dv", "dw"), ("du", "dw"),
                                         ("du", "dv"))]
    forms += [swap(g, "d" + h, 1) for g in names for h in names]
    forms += [RuleSpec.make([("d" + g, 2)], []) for g in names]
    calc = CalculusPresentation(gens, algebra, forms, p=1, letter_order=order)
    assert calc.system._sort_table is not None
    if not sort:
        calc.system._sort_table = None
    return calc


def test_a_run_whose_gains_multiply_to_one_sums_to_r():
    """theta(u) = v w: a copy of u gains 1/2 moving left past v and 2 past w,
    so (sigma rho) = 1 and `SortTable.run_sum` is r itself; L_theta(u^5) is
    5 u^4 v w, as the same calculus computes without a sort table."""
    from ncham.cartan import PresentedDerivation

    results = []
    for sort in (True, False):
        calc = _unit_run_calculus(sort)
        vw = calc.element([("v", 1), ("w", 1)])
        theta = PresentedDerivation(calc, {"u": vw})
        x = calc.element([("u", 5)])
        results.append(str(theta.lie(x)))
        if sort:
            table, encode = calc.system._sort_table, calc.system.encode_letter
            iw = (encode("v"), encode("w"))
            for r in (2, 5, 12):
                assert table.run_sum(encode("u"), iw, r, False) == r
    assert results == ["5 u^4 v w"] * 2
