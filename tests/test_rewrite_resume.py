"""`rewrite_word` resumes its redex scan at the rewrite junction.

The reference reducer below scans every word from letter 0 and rewrites
the leftmost redex with the first matching rule in insertion order.  On
every word it must agree with `rewrite_word` on the normal form, on the
words left in the normal-form cache, and on the number of rewrite steps,
which is checked through the step budget: `ReductionBudgetExceeded`
must fire at one step less than the reference takes, and not at that
number.  `rewrite_word` is called directly, because `reduce_word` sorts
the words of the torus and takes no rewrite step there.
"""

import random

import pytest

from ncham.algebra import GeneratorSymbol, ReductionBudgetExceeded, RuleSpec
from ncham.forms import CalculusPresentation
from ncham.models import cuntz_calculus, torus_calculus


def reference_reduce(system, word, budget):
    """(cache, steps) of a scan-from-0, leftmost-first reduction of word."""
    cache = {}
    steps = 0

    def leftmost_redex(w):
        for i in range(len(w)):
            for rule in system.rules:
                if w[i:i + len(rule.lhs)] == rule.lhs:
                    return i, rule
        return None

    def normal_form(w):
        nonlocal steps
        if w in cache:
            return cache[w]
        m = leftmost_redex(w)
        if m is None:
            cache[w] = {w: system.one()}
            return cache[w]
        i, rule = m
        steps += 1
        if steps > budget:
            raise ReductionBudgetExceeded(system.word_str(word))
        pre, suf = w[:i], w[i + len(rule.lhs):]
        out = {}
        for rw, c in rule.rhs.items():
            for wf, cf in normal_form(system.table.concat(pre, rw, suf)).items():
                acc = out.get(wf, system.zero()) + c * cf
                if acc:
                    out[wf] = acc
                else:
                    out.pop(wf, None)
        cache[w] = out
        return out

    normal_form(word)
    return cache, steps


def assert_matches_reference(system, word):
    ref_cache, steps = reference_reduce(system, word, budget=10 ** 6)
    system._nf_cache.clear()
    system.step_budget = steps
    assert system.rewrite_word(word) == ref_cache[word], system.word_str(word)
    assert system._nf_cache == ref_cache, system.word_str(word)
    if steps:
        system._nf_cache.clear()
        system.step_budget = steps - 1
        with pytest.raises(ReductionBudgetExceeded):
            system.rewrite_word(word)
        with pytest.raises(ReductionBudgetExceeded):
            reference_reduce(system, word, budget=steps - 1)
    system.step_budget = 10 ** 6
    return steps


def random_words(system, rng, count, max_len, forms=True):
    """Reduced words (no adjacent inverse pair) over every letter, or
    over the algebra letters only: those words rewrite longest, as no
    du du -> 0 cuts them short."""
    concat = system.table.concat
    letters = [li for li, isd in enumerate(system.table.is_diff)
               if forms or not isd]
    for _ in range(count):
        yield concat(*[(rng.choice(letters),)
                       for _ in range(rng.randint(0, max_len))])


@pytest.mark.parametrize("build, arg", [
    (torus_calculus, 1), (torus_calculus, 2), (torus_calculus, 3),
    (cuntz_calculus, 2), (cuntz_calculus, 3)],
    ids=["torus-p1", "torus-p2", "torus-p3", "cuntz-n2", "cuntz-n3"])
def test_resumed_scan_matches_scan_from_zero_on_models(build, arg):
    system = build(arg).system
    rng = random.Random(20261018 + arg)
    words = list(random_words(system, rng, 300, 16)) \
        + list(random_words(system, rng, 100, 16, forms=False))
    total = sum(assert_matches_reference(system, w) for w in words)
    assert total > 300        # the words really get rewritten


def junction_presentation():
    """Left-hand sides of lengths 1 to 3, right-hand sides that cancel
    into the prefix: b c -> a^-1 cancels completely after an a, and
    c a -> a^-1 c and x y z -> b - 2 a^-1 x cancel one letter of it."""
    gens = [GeneratorSymbol("a", invertible=True)] + [
        GeneratorSymbol(n) for n in "bcxyze"]
    rules = [
        RuleSpec.make([("b", 1), ("c", 1)], [(1, [("a", -1)])]),
        RuleSpec.make([("c", 1), ("a", 1)], [(1, [("a", -1), ("c", 1)])]),
        RuleSpec.make([("x", 1), ("y", 1), ("z", 1)],
                      [(1, [("b", 1)]), (-2, [("a", -1), ("x", 1)])]),
        RuleSpec.make([("e", 1)], [(1, [("a", -1)]), (3, [])]),
    ]
    return CalculusPresentation(gens, rules, []).system


def test_resumed_scan_matches_scan_from_zero_on_cancelling_rules():
    system = junction_presentation()
    assert system._max_lhs == 3
    enc = system.encode_word
    # after b c -> a^-1 cancels the a before it, x y z starts one letter
    # further left than the junction reach alone allows
    assert assert_matches_reference(
        system, enc([("x", 1), ("y", 1), ("a", 1), ("b", 1), ("c", 1),
                     ("z", 1)])) == 2
    # e -> 3 leaves x y z, starting L - 1 = 2 letters before the redex
    assert system.reduce_word(enc([("x", 1), ("y", 1), ("e", 1), ("z", 1)])) \
        == {enc([("a", -1), ("x", 1)]): system.scalar(-6),
            enc([("b", 1)]): system.scalar(3),
            enc([("x", 1), ("y", 1), ("a", -1), ("z", 1)]): system.one()}
    # a run of a's eaten by rewrites whose rhs cancels, cascading into suf
    assert_matches_reference(
        system, enc([("a", 3), ("b", 1), ("c", 1), ("a", -1), ("b", 1),
                     ("c", 1)]))
    rng = random.Random(7)
    total = sum(assert_matches_reference(system, w)
                for w in random_words(system, rng, 600, 16, forms=False))
    assert total > 1000
