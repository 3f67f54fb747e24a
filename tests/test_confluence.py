"""Diamond-lemma checks: every built-in presentation must be locally
confluent, and a deliberately broken one must be reported as such."""

import pytest

from ncham.algebra import GeneratorSymbol, RuleSpec, check_local_confluence
from ncham.cli import main
from ncham.forms import CalculusPresentation
from ncham.models import cuntz_calculus, torus_calculus
from ncham.scalars import q_power


@pytest.mark.parametrize("p", [1, 2, 3])
def test_torus_confluent(p):
    rep = check_local_confluence(torus_calculus(p))
    assert rep.pairs, "overlaps must exist"
    assert rep.all_joinable, rep.summary(torus_calculus(p).system)


@pytest.mark.parametrize("n", [2, 3])
def test_cuntz_confluent(n):
    calc = cuntz_calculus(n)
    rep = check_local_confluence(calc)
    assert rep.all_joinable, rep.summary(calc.system)
    # the interesting overlap: s_n s_n* s_1 joins both ways
    words = [calc.system.word_str(pair.word) for pair in rep.pairs]
    assert any(w == "s%d s%d* s1" % (n, n) for w in words)


def test_algebra_only_presentation_confluent():
    # torus base algebra without the form rules: v u -> q^-1 u v, u < v
    gens = [GeneratorSymbol("u", invertible=True),
            GeneratorSymbol("v", invertible=True)]
    rules = [RuleSpec.make([("v", 1), ("u", 1)],
                           [(q_power(2, -1), [("u", 1), ("v", 1)])])]
    pres = CalculusPresentation(gens, rules, [], p=2, letter_order=["u", "v"])
    rep = check_local_confluence(pres)
    assert rep.pairs
    assert rep.all_joinable


def test_conflicting_rules_not_joinable():
    """Both uv -> q vu and uv -> vu installed: two distinct normal forms."""
    q = q_power(3, 1)
    gens = [GeneratorSymbol("v"), GeneratorSymbol("u")]   # precedence v < u
    rules = [
        RuleSpec.make([("u", 1), ("v", 1)], [(q, [("v", 1), ("u", 1)])]),
        RuleSpec.make([("u", 1), ("v", 1)], [(1, [("v", 1), ("u", 1)])]),
    ]
    pres = CalculusPresentation(gens, rules, [], p=3, letter_order=["v", "u"])
    rep = check_local_confluence(pres)
    assert not rep.all_joinable
    assert len(rep.failures()) >= 1


def test_cancellation_overlaps_are_checked():
    """v u u^-1 reduces through either the swap rule or the cancellation."""
    calc = torus_calculus(3)
    rep = check_local_confluence(calc)
    words = [calc.system.word_str(p.word) for p in rep.pairs]
    assert "v u u^-1" in words
    assert rep.all_joinable


INCLUSION = "generator a\ngenerator b\norder a < b\nrule b a -> a b\n"


@pytest.mark.parametrize("rule, code, summary, line", [
    ("rule b a b -> a", 1, "critical pairs: 3, joinable: 1, failing: 2",
     "NOT JOINABLE: b a b  (b a b -> ... <- b a)"),
    ("rule b a b -> a b b", 0, "critical pairs: 3, joinable: 3, failing: 0",
     "joinable: b a b  (b a b -> ... <- b a)"),
])
def test_inclusion_ambiguities(capsys, tmp_path, rule, code, summary, line):
    """b a lies inside b a b: both rewrites of b a b must meet."""
    path = tmp_path / "inclusion.pres"
    path.write_text(INCLUSION + rule + "\n")
    assert main(["--presentation", str(path), "confluence"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == summary
    assert "  " + line in lines
