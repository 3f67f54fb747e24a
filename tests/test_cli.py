"""Expression parsing, presentation files, and the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncham.cli import main
from ncham.exprparse import (ParseError, load_presentation, parse_derivation,
                             parse_expression)
from ncham.models import (ModelDescriptor, UnsoundPresentationError,
                          build_matrix, build_poly_matrix, build_torus)
from ncham.scalars import q_power


@pytest.fixture(scope="module")
def torus2m():
    return build_torus(2)


@pytest.fixture(scope="module")
def torus3m():
    return build_torus(3, bound=1)


def test_parse_examples(torus2m, torus3m):
    calc = torus2m.calculus
    om = parse_expression("u^-1 du dv v^-1", torus2m)
    assert om == calc.gen("u", -1) * calc.dgen("u") * calc.dgen("v") \
        * calc.gen("v", -1)
    assert om.degree() == 2
    assert len(om.terms) == 1

    el = parse_expression("2/3 q^2 u^2 v^-1", torus3m)
    calc3 = torus3m.calculus
    from fractions import Fraction

    expected = calc3.element([("u", 2), ("v", -1)],
                             q_power(3, 2) * Fraction(2, 3))
    assert el == expected
    # '*' is an optional separator
    assert parse_expression("u * v", torus2m) == \
        parse_expression("u v", torus2m)

    with pytest.raises(ParseError):
        parse_expression("du^-1", torus2m)
    with pytest.raises(ParseError):
        parse_expression("u +* v", torus2m)
    with pytest.raises(ParseError):
        parse_expression("w", torus2m)


def test_powers_equal_repeated_products(torus3m):
    from ncham.models import build_cuntz

    cuntz = build_cuntz(2)
    for model, base, k in ((torus3m, "u", 7), (torus3m, "dv", 2),
                           (torus3m, "du", 1), (torus3m, "(u + q dv)", 6),
                           (torus3m, "(u v^-1)", 5), (cuntz, "s1*", 3),
                           (cuntz, "ds2", 2), (cuntz, "(s1 + s2*)", 4)):
        atom = parse_expression(base, model)
        prod = atom
        for _ in range(k - 1):
            prod = prod * atom
        assert parse_expression("%s^%d" % (base, k), model) == prod
    assert parse_expression("u^3 v^-2 u^2", torus3m) == \
        parse_expression("u u u v^-1 v^-1 u u", torus3m)


def test_parse_print_round_trip(torus2m, torus3m):
    import random

    rng = random.Random(14)
    for model in (torus2m, torus3m):
        for _ in range(25):
            x = model.random_form(rng, 2)
            assert parse_expression(str(x), model) == x


def test_parse_round_trip_matrix():
    m = build_matrix(2)
    ns = m.namespace()
    x = ns["E12"] - ns["E21"]
    assert parse_expression(str(x), m) == x
    dx = x.d()
    assert parse_expression(str(dx), m) == dx
    # no ⊗ term of a printed form need be a form; their sum is, and reads back
    import random

    pm, rng = build_poly_matrix(2), random.Random(3)
    for _ in range(20):
        x = pm.random_form(rng, 2)
        assert parse_expression(str(x), pm) == x


def test_parse_derivations(torus2m):
    th = parse_derivation("u -> 2 u^3 v^2, v -> -2 u^2 v^3", torus2m)
    calc = torus2m.calculus
    assert th.images["u"] == calc.element([("u", 3), ("v", 2)], 2)
    assert th.images["v"] == calc.element([("u", 2), ("v", 3)], -2)

    m2 = build_matrix(2)
    ad = parse_derivation("S: E12 - E21", m2)
    assert ad.apply_unit(0)   # acts nontrivially on E11

    pm = build_poly_matrix(2)
    mixed = parse_derivation("x: 1, y: y^2, S: x (E12 - E21)", pm)
    assert mixed.theta_x == 1 and str(mixed.theta_r) == "x"
    # theta_S = theta_r (E12 - E21): a zero diagonal and S21 = -S12
    for spec in ("S: E12", "S: E11", "S: x E12 + x E21", "S: E12 - E21 + I"):
        with pytest.raises(ValueError, match="theta_S must be antisymmetric"):
            parse_derivation(spec, pm)


TORUS2_RELATIONS = """\
# the p=2 noncommutative torus, spelled out by hand
cyclotomic 2
generator u invertible
generator v invertible
order dv < du < u < v
rule v u -> q^-1 u v
frule u dv -> q dv u
frule v du -> q^-1 du v
frule u du -> du u
frule v dv -> dv v
frule du dv -> -q dv du
frule du du -> 0
frule dv dv -> 0
"""
TORUS2_OMEGA = "omega u^-1 du dv v^-1\n"
TORUS2_DERIVATION = "derivation xa: u -> 2 u^3 v^2, v -> -2 u^2 v^3\n"
# a second copy of xa, which makes omega_tilde singular on the ansatz
TORUS2_COPY = "derivation xb: u -> 2 u^3 v^2, v -> -2 u^2 v^3\n"


def test_presentation_file_round_trip(tmp_path):
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION)
    model = load_presentation(str(path))
    calc = model.calculus
    assert calc.p == 2
    u, v = calc.gen("u"), calc.gen("v")
    assert v * u == -(u * v)
    for name, ok, detail in model.certify():
        assert ok, (name, detail)
    # omega and the declared derivation make the solver available
    a = calc.element([("u", 2), ("v", 2)])
    sol = model.solver.solve(a)
    assert sol.hamiltonian


def test_d_omega_is_computed_once_per_file_model(monkeypatch, tmp_path):
    """Loading checks that omega is closed by reading model.omega, which
    applies d to omega once; the solver and certify reuse that verdict."""
    from ncham.forms import CalculusPresentation

    args, d = [], CalculusPresentation.d

    def counted_d(self, x):
        args.append(x)
        return d(self, x)

    monkeypatch.setattr(CalculusPresentation, "d", counted_d)
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION)
    model = load_presentation(str(path))
    omega = model.omega.omega
    assert sum(x is omega for x in args) == 1
    a = model.calculus.element([("u", 2), ("v", 2)])
    assert model.solver.solve(a).hamiltonian
    checks = {name: ok for name, ok, _ in model.certify()}
    assert checks["d omega = 0"] is True
    assert sum(x is omega for x in args) == 1


def test_presentation_file_reports_an_unclosed_omega_last(capsys, tmp_path):
    """The 2-form is checked once every line has parsed, so a later line
    that cannot be read is the error reported."""
    path = tmp_path / "bad.pres"
    path.write_text("generator u invertible\ngenerator v invertible\n"
                    "omega u dv\nderivation t: u -> w\n")
    code, out, err = run_cli(capsys, "--presentation", str(path), "normalize",
                             "u")
    assert (code, out, err) == (
        2, "", "error: line 4: unknown generator 'w' (at position 1)")
    with pytest.raises(ParseError, match="line 4: unknown generator 'w'"):
        load_presentation(str(path))


def test_presentation_file_algebra_only_order(tmp_path):
    """An order clause without differentials still yields a calculus."""
    text = """\
cyclotomic 3
generator v
generator u
order v < u
rule u v -> q v u
rule u v -> v u
"""
    path = tmp_path / "bad.pres"
    path.write_text(text)
    model = load_presentation(str(path))
    assert not model.calculus.dgen("u").is_zero()
    checks = dict((name, ok) for name, ok, _ in model.certify())
    assert checks["local confluence"] is False


def test_presentation_file_loads_the_builtin_torus(tmp_path):
    """The README's file gives torus_calculus(2)'s letters and rules, in
    order: the rule line, the frule lines, then the derived variants."""
    from ncham.models import torus_calculus

    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION)
    calc, builtin_calc = load_presentation(str(path)).calculus, torus_calculus(2)
    loaded, builtin = calc.system, builtin_calc.system
    assert loaded.table.letters == builtin.table.letters
    assert ([(r.lhs, r.rhs, r.derived) for r in loaded.rules]
            == [(r.lhs, r.rhs, r.derived) for r in builtin.rules])
    assert any(r.derived for r in loaded.rules)
    # d's letter images are normalized under all the rules, as built in
    assert calc._d_of_letter == builtin_calc._d_of_letter


def test_presentation_file_rule_rewrites_a_generator(capsys, tmp_path):
    """d and every parsed element see the rules: u reads as v."""
    path = tmp_path / "uv.pres"
    path.write_text("generator u\ngenerator v\norder v < u\nrule u -> v\n")
    for argv, expect in ((("normalize", "u du u"), "v du v"),
                         (("d", "u"), "dv")):
        code, out, err = run_cli(capsys, "--presentation", str(path), *argv)
        assert (code, out, err) == (0, expect, "")


def test_presentation_file_errors(tmp_path):
    path = tmp_path / "bad.pres"
    path.write_text("rule v u -> u v\n")
    with pytest.raises(ParseError):
        load_presentation(str(path))


@pytest.mark.parametrize("text, message", [
    ("generator u\ngenerator v\norder du < zz\n",
     "line 3: letter 'zz' refers to no generator"),
    ("generator u\ngenerator v\nrule v zz -> u\n",
     "line 3: unknown letter 'zz'^1"),
    ("generator u\ngenerator\n", "line 2: generator line names no generator"),
    ("cyclotomic abc\ngenerator u\n",
     "line 1: invalid literal for int() with base 10: 'abc'"),
    ("generator u\nrule u^x -> 1\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
    ("generator u invertible\ngenerator v invertible\nomega u dv\n"
     "derivation t: u -> u\n",
     "line 3: the 2-form is not closed: d omega = du dv"),
    ("generator u invertible\ngenerator v invertible\n"
     "order dv < du < v < u < v^-1 < u^-1\nrule u v -> v u\n",
     "line 4: derived variant u v^-1 -> v^-1 u of rule u v -> v u does not "
     "decrease"),
    ("generator u invertible\ngenerator v\norder du < v < u^-1 < dv < u\n"
     "rule u v -> v u\nfrule u dv -> dv u\n",
     "line 5: derived variant u^-1 dv -> dv u^-1 of rule u dv -> dv u does "
     "not decrease"),
    ("generator u\ngenerator v\nrule u du -> du u\n",
     "line 3: an algebra rule has degree 0, but this one names the "
     "differential du"),
    ("generator u\ngenerator du\n",
     "line 2: generator 'du': generator and differential names must differ"),
    ("generator du\ngenerator u\n",
     "line 2: generator 'u': generator and differential names must differ"),
    ("generator u invertible\ngenerator v invertible\n"
     "derivation t: u -> u, u -> v\n",
     "line 3: derivation chunk 'u -> v': 'u' is given twice"),
    ("generator u invertible\ngenerator v invertible\n"
     "derivation t: u -> u, w -> v\n",
     "line 3: derivation chunk 'w -> v': 'w' is no generator"),
    ("generator u\ngenerator v\norder du < u\n",
     "line 3: letter order omits generator 'v'"),
    ("generator u\nrule u u ->\n",
     "line 2: unexpected end of expression (at position 0)"),
    ("generator u\nbogus x\n", "line 2: unknown directive 'bogus'"),
], ids=["order", "rule-lhs", "bare-generator", "cyclotomic", "rule-power",
        "omega-not-closed", "derived-variant", "derived-form-variant",
        "rule-names-differential", "generator-is-a-differential",
        "differential-is-a-generator", "derivation-repeats-a-generator",
        "derivation-names-no-generator", "order-omits-a-generator",
        "rule-without-rhs", "unknown-directive"])
def test_cli_presentation_error_names_the_line(capsys, tmp_path, text,
                                               message):
    path = tmp_path / "bad.pres"
    path.write_text(text)
    code, out, err = run_cli(capsys, "--presentation", str(path), "normalize",
                             "u")
    assert (code, out, err) == (2, "", "error: " + message)


@pytest.mark.parametrize("extra, message", [
    ("omega\n", "line 16: omega declared twice (first on line 14)"),
    ("omega 2 u^-1 du dv v^-1\n",
     "line 16: omega declared twice (first on line 14)"),
    ("cyclotomic 2\n", "line 16: cyclotomic declared twice (first on line 2)"),
    ("order dv < du < u < v\n",
     "line 16: order declared twice (first on line 5)"),
], ids=["empty-omega", "second-omega", "cyclotomic", "order"])
def test_presentation_file_directive_declared_twice(capsys, tmp_path, extra,
                                                    message):
    """A second cyclotomic, order or omega line is an error naming both
    lines; it neither replaces the first nor, when empty, drops the
    2-form."""
    path = tmp_path / "twice.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION
                    + extra)
    code, out, err = run_cli(capsys, "--presentation", str(path),
                             "is-hamiltonian", "u^2 v^2")
    assert (code, out, err) == (2, "", "error: " + message)


# -- command line ------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_cli_bracket_golden(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "bracket",
                           "u^2 v^2", "u^2 v^4")
    assert code == 0 and out == "-4 u^4 v^6"

    code, out, _ = run_cli(capsys, "--model", "cuntz:n=2", "bracket",
                           "s1 s2*", "s2 s1*")
    assert code == 0 and out == "2 s1 s1* - 1"


def test_cli_not_hamiltonian_exit_code(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "is-hamiltonian", "u")
    assert code == 1
    assert out.startswith("NOT_HAMILTONIAN")

    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "is-hamiltonian",
                           "u^2 v^2")
    assert code == 0
    assert out.startswith("HAMILTONIAN")


def test_cli_normalize_and_usage_errors(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "v u")
    assert code == 0 and out == "-u v"

    code, _, err = run_cli(capsys, "--model", "torus:p=2", "normalize", "du^-1")
    assert code == 2 and "differentials are not invertible" in err

    code, _, err = run_cli(capsys, "--model", "nosuch:p=1", "normalize", "u")
    assert code == 2

    code, _, err = run_cli(capsys, "normalize", "u")
    assert code == 2   # neither --model nor --presentation

    # each chunk of a model string sets one parameter, once, to an integer
    for model, message in (
            ("torus:p=2,p=3", "model argument 'p' is given twice"),
            ("torus:p=x", "malformed model argument 'p=x'"),
            ("torus:=2", "malformed model argument '=2'"),
            ("torus:p=2,", "malformed model argument ''"),
            ("torus:B", "malformed model argument 'B'"),
            ("torus:q=2", "model torus does not take q")):
        code, out, err = run_cli(capsys, "--model", model, "normalize", "u")
        assert (code, out, err) == (2, "", "error: " + message), model

    # the model string is the one way to set the ansatz bound
    code, out, _ = run_cli(capsys, "--model", "torus:p=2,B=4",
                           "is-hamiltonian", "u^2 v^2")
    assert (code, out) == (
        0, "HAMILTONIAN (relative to ansatz of 162 derivations)")
    with pytest.raises(SystemExit) as exc:
        main(["--model", "torus:p=2", "--ansatz", "B=4", "is-hamiltonian",
              "u^2 v^2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ncham: error: unrecognized arguments: --ansatz\n")


def test_cli_options_before_or_after_the_command(capsys):
    """An option may come before or after the command; a value given after
    it wins, and one given only before it is kept."""
    flow = ["flow", "u^2 v^2", "u"]
    for argv, want in (
            (["--order", "5"] + flow + ["--order", "1"], "u + t (2 u^3 v^2)"),
            (["--order", "1"] + flow, "u + t (2 u^3 v^2)"),
            (["--order", "0"] + flow, "u"),
            (["--format", "json", "normalize", "v u", "--format", "text"],
             "-u v"),
            (["--format", "json", "normalize", "v u"],
             '{\n  "result": "-u v",\n  "status": "ok"\n}')):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", *argv)
        assert (code, out, err) == (0, want, ""), argv
    code, out, _ = run_cli(capsys, "--seed", "3", "--model", "torus:p=2",
                           "check", "--count", "1")
    assert code == 0 and "(1 trials, seed 3)" in out


def test_cli_json_and_flow(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "--format", "json",
                           "hamvec", "u^2 v^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "HAMILTONIAN"
    assert payload["field"]["u"] == "2 u^3 v^2"
    assert payload["kernel_dimension"] == 0

    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "flow",
                           "u^2 v^2", "u", "--order", "1")
    assert code == 0 and out == "u + t (2 u^3 v^2)"


def test_cli_check_and_confluence(capsys):
    code, out, _ = run_cli(capsys, "--model", "matrix:n=2", "check",
                           "--count", "5", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out

    code, out, _ = run_cli(capsys, "--model", "cuntz:n=2", "confluence")
    assert code == 0
    assert "failing: 0" in out


def test_cli_byte_stable(capsys):
    runs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--model", "torus:p=3", "bracket",
                               "u^3 v^3", "u^-3 v^3")
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_cli_large_generator_power(capsys, tmp_path):
    # needs O(log k) products: k - 1 repeated products take minutes
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "u^100000")
    assert code == 0 and out == "u^100000"
    # a rule on powers of u keeps every intermediate power short
    path = tmp_path / "involution.pres"
    path.write_text("cyclotomic 1\ngenerator u invertible\nrule u u -> 1\n")
    for expr, want in (("u^100001", "u"), ("u^100000", "1"),
                       ("(u u u)^100001", "u")):
        code, out, _ = run_cli(capsys, "--presentation", str(path),
                               "normalize", expr)
        assert code == 0 and out == want


def test_cli_power_of_a_product_sorts(capsys):
    """(u v)^k normalizes by sorting, without a rewrite step per swap."""
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                               "(u v)^2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "u^2000 v^2000")
    assert peak < 30 * 2 ** 20


def test_cli_largest_torus_ansatz(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=32,B=8",
                           "is-hamiltonian", "1")
    assert (code, out) == (0, "HAMILTONIAN (relative to ansatz of 578 "
                              "derivations)")


def test_cli_end_of_expression(capsys):
    for expr, code, message in (
            ("u +", 2, "error: unexpected end of expression (at position 3)"),
            ("", 2, "error: unexpected end of expression (at position 0)"),
            ("u +* v", 2, "error: unexpected token '*' (at position 3)")):
        assert run_cli(capsys, "--model", "torus:p=2", "normalize", expr) \
            == (code, "", message)


def test_cli_normalize_on_a_wrong_declared_variant(capsys, tmp_path):
    """v u^-1 -> u^-1 v should carry q: such rules are not confluent and
    rewrite as they always have, so the answers depend on the rewrite
    order (u v u^-1 gives v, u^-1 v u gives -v)."""
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + "rule v u^-1 -> u^-1 v\n")
    for expr, want in (("v u^-1", "u^-1 v"), ("u v u^-1", "v"),
                       ("u^-1 v u", "-v"), ("v^2 u^-1 v u", "-v^3"),
                       ("u v^-1 u^-1 v", "-1"), ("du v u^-1", "du u^-1 v"),
                       ("(u + v)^3 u^-1", "u^-1 v^3 + v^2 + u v + u^2")):
        assert run_cli(capsys, "--presentation", str(path), "normalize",
                       expr) == (0, want, ""), expr


def test_cli_division_by_zero_and_deep_nesting_exit_2(capsys):
    for expr, message in (
            ("1/0", "error: division by zero in 1/0 (at position 0)"),
            ("u 0^-1", "error: division by zero: 0 to the power -1 "
                       "(at position 3)"),
            ("(q - q)^-2", "error: division by zero: 0 to the power -2"),
            ("(" * 3000 + "u" + ")" * 3000,
             "error: parentheses nest deeper than 100 (at position 100)")):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", "normalize",
                                 expr)
        assert code == 2 and out == "" and message in err
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "(" * 100 + "v u" + ")" * 100)
    assert code == 0 and out == "-u v"


def test_cli_maps_reduction_budget_to_exit_2(capsys, tmp_path, monkeypatch):
    # decreasing rules always terminate, but b^k a^k needs k^2 swaps: with a
    # budget of 50 steps, k = 8 runs away
    from ncham.algebra import RewriteSystem

    monkeypatch.setattr(RewriteSystem, "step_budget", 50)
    path = tmp_path / "swap.pres"
    path.write_text("generator a\ngenerator b\nrule b a -> a b\n")
    code, out, _ = run_cli(capsys, "--presentation", str(path), "normalize",
                           "b^7 a^7")
    assert code == 0 and out == "a^7 b^7"
    code, out, err = run_cli(capsys, "--presentation", str(path), "normalize",
                             "b^8 a^8")
    assert code == 2 and out == ""
    assert "rewrite budget of 50 steps exceeded reducing b^8 a^8" in err
    assert "last rule applied: b a ->" in err


_PROPERTY_LINES = ["PASS %s (3 trials, seed 2026)" % name for name in (
    "magic formula", "d L = L d", "L/iprod commutation", "iprod antisymmetry",
    "Lie commutator")]


@pytest.mark.parametrize("omega, derivation, code, lines", [
    (True, True, 0, [
        "PASS local confluence 44 critical pairs",
        "PASS d omega = 0",
        "PASS ansatz consistency 1 derivations",
        "PASS omega_tilde injective omega_tilde kernel: 0 (nonsingular on "
        "the ansatz)"] + _PROPERTY_LINES),
    (False, True, 0, [
        "PASS local confluence 44 critical pairs",
        "PASS derivation consistency 1 derivations"] + _PROPERTY_LINES),
    (True, False, 1, [
        "PASS local confluence 44 critical pairs",
        "PASS d omega = 0",
        "PASS ansatz consistency 0 derivations",
        "PASS omega_tilde injective omega_tilde kernel: 0 (nonsingular on "
        "the ansatz)",
        "FAIL property suite (presentation file declares no derivations)"]),
    (False, False, 0, [
        "PASS local confluence 44 critical pairs",
        "PASS derivation consistency 0 derivations"]),
    (True, 2, 1, [
        "PASS local confluence 44 critical pairs",
        "PASS d omega = 0",
        "PASS ansatz consistency 2 derivations",
        "FAIL omega_tilde injective omega_tilde kernel dimension: 1"]
     + _PROPERTY_LINES),
], ids=["omega+derivation", "derivation-only", "omega-only", "neither",
        "omega+singular-ansatz"])
def test_cli_check_on_presentation_variants(capsys, tmp_path, omega,
                                            derivation, code, lines):
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + (TORUS2_OMEGA if omega else "")
                    + (TORUS2_DERIVATION if derivation else "")
                    + (TORUS2_COPY if derivation == 2 else ""))
    got, out, err = run_cli(capsys, "--presentation", str(path), "check",
                            "--count", "3")
    assert (got, out, err) == (code, "\n".join(lines), "")
    model = load_presentation(str(path))
    assert isinstance(model, ModelDescriptor)
    assert (model.omega is not None) == omega == hasattr(model, "solver")
    assert len(model.space.basis) == derivation


def test_cli_bracket_needs_symplectic_presentation(capsys, tmp_path):
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS)
    code, out, err = run_cli(capsys, "--presentation", str(path), "bracket",
                             "u", "v")
    assert (code, out) == (2, "")
    assert err == ("error: this command needs a symplectic model (built-in, "
                   "or a presentation file with omega and derivation lines)")


def test_cli_json_not_hamiltonian_payload(capsys):
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "--format", "json",
                           "is-hamiltonian", "u")
    assert code == 1
    assert out == """\
{
  "ansatz_size": 98,
  "kernel_dimension": 0,
  "residual": {
    "(1,)": "1"
  },
  "status": "NOT_HAMILTONIAN"
}"""


def test_cli_iprod_and_lie_refuse_an_inconsistent_derivation(capsys):
    # theta(u) = u v, theta(v) = 0 breaks u du = du u (and du du = 0)
    summary = [
        "consistency checks: 26, failing: 6",
        "  FAIL iprod on rule u du: residual 2 u^2 v",
        "  FAIL lie on rule u du: residual 2 dv u^2",
        "  FAIL iprod on rule du du: residual -2 du u v",
        "  FAIL lie on rule du du: residual -2 dv du u",
        "  FAIL iprod on derived rule u^-1 du: residual 2 v",
        "  FAIL lie on derived rule u^-1 du: residual 2 dv"]
    for cmd in ("lie", "iprod"):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", cmd,
                                 "u -> u v, v -> 0", "du")
        assert (code, out, err) == (1, "\n".join(["NOT_CONSISTENT"] + summary),
                                    "")
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "--format", "json",
                           "lie", "u -> u v, v -> 0", "du")
    assert code == 1
    assert json.loads(out) == {"status": "NOT_CONSISTENT", "detail": summary}
    # a consistent derivation still gets its answer
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "lie",
                           "u -> 2 u^3 v^2, v -> -2 u^2 v^3", "u")
    assert (code, out) == (0, "2 u^3 v^2")


@pytest.mark.parametrize("model, cmd, spec, message", [
    ("torus:p=2", "iprod", "w -> u", "derivation chunk 'w -> u': 'w' is no "
     "generator"),
    ("torus:p=2", "iprod", "du -> u", "derivation chunk 'du -> u': 'du' is "
     "no generator"),
    ("torus:p=2", "iprod", " -> u", "derivation chunk '-> u': '' is no "
     "generator"),
    ("cuntz:n=2", "lie", "s3 -> s1", "derivation chunk 's3 -> s1': 's3' is "
     "no generator"),
    ("torus:p=2", "lie", "u -> u, u -> v", "derivation chunk 'u -> v': 'u' "
     "is given twice"),
    ("polymat:D=3", "lie", "S: E12 - E21, z: x", "mixed derivation field "
     "'z' is none of x, y, S"),
    ("polymat:D=3", "lie", "x: 1, x: y", "derivation chunk 'x: y': 'x' is "
     "given twice"),
    ("polymat:D=3", "lie", "S: dE12", "S must be a 0-form"),
    ("polymat:D=3", "lie", "x: E12", "x must be a multiple of the identity"),
    ("matrix:n=2", "lie", "S: E12 - E21, x: E11",
     "matrix derivations take a single S: <matrix>"),
], ids=["unknown-generator", "differential", "empty-name", "cuntz-unknown",
        "repeated-generator", "polymat-unknown-field",
        "polymat-repeated-field", "polymat-S-degree", "polymat-x-not-scalar",
        "matrix-second-field"])
def test_cli_bad_derivation_spec_names_the_chunk(capsys, model, cmd, spec,
                                                 message):
    code, out, err = run_cli(capsys, "--model", model, cmd, spec, "du")
    assert (code, out, err) == (2, "", "error: " + message)


TRANSPORTED = "the transported element"


@pytest.mark.parametrize("source, argv, what", [
    ("torus:p=2", ["is-hamiltonian", "du"], "a Hamiltonian"),
    ("torus:p=2", ["is-hamiltonian", "u^2 v^2 + du"], "a Hamiltonian"),
    ("torus:p=2", ["bracket", "du", "u^2 v^2"], "a Hamiltonian"),
    ("torus:p=2", ["bracket", "u^2 v^2", "du"], "a Hamiltonian"),
    ("torus:p=2", ["flow", "du", "u^2 v^2"], "a Hamiltonian"),
    ("matrix:n=2", ["bracket", "dE12", "E11"], "a Hamiltonian"),
    ("cuntz:n=2", ["hamvec", "ds1 s1*"], "a Hamiltonian"),
    ("polymat:D=3", ["is-hamiltonian", "dx"], "a Hamiltonian"),
    ("file", ["is-hamiltonian", "du"], "a Hamiltonian"),
    # the transported element is refused before the Hamiltonian is solved
    ("torus:p=2", ["flow", "u^2 v^2", "du", "--order", "0"], TRANSPORTED),
    ("torus:p=2", ["flow", "u^2 v^2", "u + du"], TRANSPORTED),
    ("matrix:n=2", ["flow", "E12 - E21", "dE11", "--order", "0"], TRANSPORTED),
    ("cuntz:n=2", ["flow", "s1 s2*", "ds1 s1*"], TRANSPORTED),
    ("polymat:D=3", ["flow", "E12 - E21", "dx", "--order", "0"], TRANSPORTED),
    ("file", ["flow", "u^2 v^2", "du"], TRANSPORTED),
], ids=["torus", "torus-mixed-degree", "torus-bracket", "torus-bracket-2nd",
        "torus-flow", "matrix", "cuntz", "polymat", "file",
        "flow-torus-order-0", "flow-torus-mixed-degree", "flow-matrix",
        "flow-cuntz", "flow-polymat", "flow-file"])
def test_cli_hamiltonian_must_be_a_0_form(capsys, tmp_path, source, argv,
                                          what):
    if source == "file":
        path = tmp_path / "torus.pres"
        path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION)
        model = ["--presentation", str(path)]
    else:
        model = ["--model", source]
    code, out, err = run_cli(capsys, *model, *argv)
    assert (code, out, err) == (2, "", "error: %s must be a 0-form" % what)


def test_cli_derivation_images_must_be_0_forms(capsys, tmp_path):
    code, out, err = run_cli(capsys, "--model", "torus:p=2", "lie", "u -> du",
                             "u v")
    assert (code, out, err) == (
        2, "", "error: image of u must be a 0-form, not du")
    code, out, err = run_cli(capsys, "--model", "cuntz:n=2", "lie", "h: ds1",
                             "s1")
    assert (code, out, err) == (
        2, "", "error: image of s1 must be a 0-form, not ds1 s1")
    # with a free calculus and omega du dv, such a member used to pass the
    # ansatz consistency check and answer is-hamiltonian
    path = tmp_path / "free.pres"
    path.write_text("generator u\ngenerator v\nomega du dv\n"
                    "derivation x: u -> du\n")
    for argv in (["is-hamiltonian", "u"], ["check"]):
        code, out, err = run_cli(capsys, "--presentation", str(path), *argv)
        assert (code, out, err) == (
            2, "", "error: line 4: image of u must be a 0-form, not du")


def test_cli_check_count_and_flow_order_bounds(capsys):
    from ncham.cli import MAX_CHECK_COUNT
    from ncham.symplectic import HamiltonianSolver

    assert (MAX_CHECK_COUNT, HamiltonianSolver.MAX_FLOW_ORDER) == (1000, 16)
    for count in ("-1", "0", "1001"):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", "check",
                                 "--count", count)
        assert (code, out, err) == (
            2, "", "error: check count %s is outside the bounds 1..1000"
            % count)
    for order in ("-1", "17"):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", "flow",
                                 "u^2 v^2", "u", "--order", order)
        assert (code, out, err) == (
            2, "", "error: flow order %s is outside the bounds 0..16" % order)
    # the bounds themselves are allowed
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "check",
                           "--count", "1")
    assert code == 0 and "(1 trials, seed 2026)" in out
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "flow", "u^2 v^2",
                           "u", "--order", "16")
    assert code == 0 and out.endswith("t^16 (2/638512875 u^33 v^32)")


def test_cli_flow_order_bound_comes_before_the_model(capsys, monkeypatch):
    """An out-of-bounds order is a usage error before any model is built
    (on torus:p=13,B=8 the solver's factorization alone takes seconds)."""
    import ncham.cli

    built = []
    monkeypatch.setattr(ncham.cli, "build_model",
                        lambda desc: built.append(desc))
    code, out, err = run_cli(capsys, "--model", "torus:p=13,B=8", "flow",
                             "u", "u", "--order", "17")
    assert (code, out, err) == (
        2, "", "error: flow order 17 is outside the bounds 0..16")
    assert built == []


def _run_into_closed_pipe(*argv):
    """Run the CLI in a subprocess whose stdout pipe has no reader left;
    -X dev also reports a file left unclosed at exit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", "-m",
                               "ncham.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


def test_cli_closed_stdout_keeps_the_verdict(tmp_path):
    """A reader that has gone away (`ncham ... | head -c 0`) is no usage
    error: the exit code is the command's own verdict, stderr is empty."""
    assert _run_into_closed_pipe("--model", "cuntz:n=2",
                                 "confluence") == (0, "")
    path = tmp_path / "two-orientations.pres"
    path.write_text("cyclotomic 3\ngenerator v\ngenerator u\norder v < u\n"
                    "rule u v -> q v u\nrule u v -> v u\n")
    assert _run_into_closed_pipe("--presentation", str(path),
                                 "confluence") == (1, "")


def test_cli_power_bound_exit_2(capsys):
    from ncham.exprparse import ExpressionParser

    assert ExpressionParser.MAX_POWER == 10 ** 6
    for expr, message in (
            ("u^1000001", "error: power 1000001 exceeds the bound 1000000 in "
                          "absolute value (at position 1)"),
            ("v u^-3000000", "error: power -3000000 exceeds the bound "
                             "1000000 in absolute value (at position 3)"),
            ("2^99999999 u", "error: power 99999999 exceeds the bound "
                             "1000000 in absolute value (at position 1)"),
            ("(u v)^-1000001", "error: power -1000001 exceeds the bound "
                               "1000000 in absolute value (at position 5)"),
            # the bound holds for the word a power builds, nested or not
            ("((u^1000)^1000)^2", "error: power 2 of a 1000000-letter word "
                                  "exceeds the bound of 1000000 letters (at "
                                  "position 15)"),
            ("((u^1000)^1000)^1000", "error: power 1000 of a 1000000-letter "
                                     "word exceeds the bound of 1000000 "
                                     "letters (at position 15)"),
            ("(u v)^600000", "error: power 600000 of a 2-letter word exceeds "
                             "the bound of 1000000 letters (at position 5)"),
            # and for the bits of the coefficients it builds
            ("2^100000 u", "error: power 100000 of a 2-bit coefficient "
                           "exceeds the bound of 14000 bits (at position 1)"),
            ("(2^1000000)^1000000 u", "error: power 1000000 of a 2-bit "
                                      "coefficient exceeds the bound of 14000 "
                                      "bits (at position 2)"),
            ("(2^1000000 u)^1000000", "error: power 1000000 of a 2-bit "
                                      "coefficient exceeds the bound of 14000 "
                                      "bits (at position 2)"),
            ("(3/4 u)^-7001", "error: power -7001 of a 3-bit coefficient "
                              "exceeds the bound of 14000 bits (at position "
                              "7)"),
            ("(2^7000 u)^2", "error: power 2 of a 7001-bit coefficient "
                             "exceeds the bound of 14000 bits (at position "
                             "10)")):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", "normalize",
                                 expr)
        assert (code, out, err) == (2, "", message)
    assert ExpressionParser.MAX_POWER_BITS == 14000
    for model, expr, pos in (("matrix:n=2", "(2 E11)^7001", 7),
                             ("polymat:D=3", "(2 x E11)^7001", 9)):
        code, out, err = run_cli(capsys, "--model", model, "normalize", expr)
        assert (code, out, err) == (
            2, "", "error: power 7001 of a 2-bit coefficient exceeds the "
                   "bound of 14000 bits (at position %d)" % pos)
    # the bounds themselves are allowed
    for expr in ("1^1000000 u", "1^-1000000 u", "q^1000000 u"):
        code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                               expr)
        assert (code, out) == (0, "u")
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "2^7000 u")
    assert (code, out) == (0, "%d u" % 2 ** 7000)
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "(u^1000)^1000")
    assert (code, out) == (0, "u^1000000")


def test_cli_printing_bound_exit_2(capsys):
    """A coefficient that parses within the power bound but grows past
    Python's 4,300-digit limit on printing an int, by a product or by a
    flow, exits 2 naming its bit length and that bound."""
    for argv, bits in ((("normalize", "2^7000 2^7000 2^7000 u"), 21001),
                       (("flow", "2^5000 u^2 v^2", "u", "--order", "3"), 15003)):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", *argv)
        assert (code, out, err) == (
            2, "", "error: a coefficient of %d bits exceeds the printing "
                   "bound of 4300 decimal digits" % bits)
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "normalize",
                           "2^-5000 2^-5000 u")
    assert (code, out) == (0, "1/%d u" % 2 ** 10000)


def test_cli_expression_with_leading_minus(capsys):
    for argv, want in (
            (["normalize", "-u"], "-u"),
            (["normalize", "--", "-u"], "-u"),
            (["normalize", "-u", "--format", "json"],
             '{\n  "result": "-u",\n  "status": "ok"\n}'),
            (["--format=json", "normalize", "-u"],
             '{\n  "result": "-u",\n  "status": "ok"\n}'),
            (["normalize", "-(v u)"], "u v"),
            (["normalize", "--u"], "u"),
            (["d", "-u"], "-du"),
            (["bracket", "-u^2 v^2", "-u^2 v^4"], "-4 u^4 v^6")):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", *argv)
        assert (code, out, err) == (0, want, ""), argv
    # a "-" word after an option that takes a value is still its value,
    # and one before the command is still an unknown option
    for argv, message in (
            (["--model", "torus:p=2", "--seed", "-x", "check"],
             "argument --seed: expected one argument"),
            (["-u", "--model", "torus:p=2", "normalize", "u"],
             "unrecognized arguments: -u"),
            # one left over after the command is named as typed
            (["--model", "torus:p=2", "normalize", "u", "--bogus"],
             "ncham: error: unrecognized arguments: --bogus\n"),
            # and so is an unknown option among the command's arguments
            (["--model", "torus:p=2", "bracket", "u", "--bogus", "v"],
             "ncham: error: unrecognized arguments: --bogus\n"),
            # a "-" word is a value when the command needs it
            (["--model", "torus:p=2", "normalize", "-u", "-v"],
             "ncham: error: unrecognized arguments: -v\n"),
            (["--model", "torus:p=2", "normalize", "-u", "-u"],
             "ncham: error: unrecognized arguments: -u\n"),
            (["--model", "torus:p=2", "bracket", "-u", "-v", "-w"],
             "ncham: error: unrecognized arguments: -w\n"),
            (["--model", "torus:p=2", "bracket", "-u", "-v", "w"],
             "ncham: error: unrecognized arguments: w\n"),
            (["--model", "torus:p=2", "confluence", "-u"],
             "ncham: error: unrecognized arguments: -u\n"),
            (["--model", "torus:p=2", "check", "extra"],
             "ncham: error: unrecognized arguments: extra\n"),
            # with enough words that do not start with "-", no word that
            # reads as an option is a value; left-overs keep argv order
            (["--model", "torus:p=2", "normalize", "-u", "v", "w"],
             "ncham: error: unrecognized arguments: -u w\n"),
            (["--model", "torus:p=2", "normalize", "-1/2", "u"],
             "ncham: error: unrecognized arguments: -1/2\n"),
            (["--model", "torus:p=2", "normalize", "-u + v", "w"],
             "ncham: error: unrecognized arguments: w\n"),
            (["--model", "torus:p=2", "normalize", "-2", "u"],
             "ncham: error: unrecognized arguments: u\n"),
            (["--model", "torus:p=2", "normalize"],
             "the following arguments are required: expr")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    # the real options keep working wherever they appear
    for argv in (["normalize", "-u", "-h"], ["check", "-h"], ["flow", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(["--model", "torus:p=2", *argv])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ncham %s" % argv[0]), argv
    assert "Hamiltonian generating the flow" in out
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert ("{normalize,d,iprod,lie,bracket,hamvec,is-hamiltonian,flow,"
            "check,confluence}") in capsys.readouterr().out
    code, out, err = run_cli(capsys, "--mod", "torus:p=2", "normalize", "-x")
    assert (code, out) == (2, "")
    assert err == "error: unknown generator 'x' (at position 1)"


def test_cli_double_dash_only_ends_the_options(capsys):
    """`--` ends the options wherever it stands, before the command too,
    and is never itself a value or a left-over word."""
    for argv, want in ((["--", "normalize", "u"], "u"),
                       (["--", "d", "-u"], "-du"),
                       (["--format", "json", "--", "normalize", "u"],
                        '{\n  "result": "u",\n  "status": "ok"\n}')):
        code, out, err = run_cli(capsys, "--model", "torus:p=2", *argv)
        assert (code, out, err) == (0, want, ""), argv
    code, out, _ = run_cli(capsys, "--model", "cuntz:n=2", "confluence", "--")
    assert code == 0
    assert out.startswith("critical pairs: 8, joinable: 8, failing: 0\n")
    # argparse cannot pass on a later "--" as a value: it is left out
    with pytest.raises(SystemExit) as exc:
        main(["--model", "torus:p=2", "bracket", "--", "--", "--"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ncham: error: the following arguments are required: a, b\n")


def test_cli_builds_one_parser_per_command_line(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["normalize", "v u"], ["bracket", "-u", "--bogus", "v"],
                 ["flow", "-h"]):
        built.clear()
        try:
            main(["--model", "torus:p=2", *argv])
        except SystemExit:
            pass
        assert len(built) == 1, argv
    capsys.readouterr()


@pytest.mark.parametrize("model, expr, want", [
    ("torus:p=2", "(u)^-1", "u^-1"),
    ("torus:p=2", "(2 u)^-1", "1/2 u^-1"),
    ("torus:p=2", "(u v)^-1", "-u^-1 v^-1"),
    ("torus:p=2", "(u^-1 v^2)^-2", "u^2 v^-4"),
    ("torus:p=3", "(2/3 q u^2 v^-1)^-1", "3/2q u^-2 v"),
])
def test_cli_inverts_monomials_of_invertible_generators(capsys, model, expr,
                                                        want):
    code, out, err = run_cli(capsys, "--model", model, "normalize", expr)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("model, expr, message", [
    ("torus:p=2", "du^-1", "differentials are not invertible: du "
                           "(at position 2)"),
    ("torus:p=2", "(u du)^-1", "differentials are not invertible: du "
                               "(at position 6)"),
    ("cuntz:n=2", "s1^-1", "generator s1 is not invertible (at position 2)"),
    ("torus:p=2", "(u + v)^-1", "negative powers need an invertible "
                                "generator (at position 7)"),
    ("matrix:n=2", "E12^-1", "negative powers need an invertible generator "
                             "(at position 3)"),
    ("polymat:D=3", "x^-1", "negative powers need an invertible generator "
                            "(at position 1)"),
])
def test_cli_refuses_other_negative_powers(capsys, model, expr, message):
    code, out, err = run_cli(capsys, "--model", model, "normalize", expr)
    assert (code, out, err) == (2, "", "error: " + message)


def test_monomial_inverse_is_two_sided(torus3m):
    one = torus3m.calculus.one()
    for text in ("u", "v u", "2/3 q u^2 v^-1", "(u v)^3", "q^2 v^-2 u"):
        x = parse_expression(text, torus3m)
        inverse = parse_expression("(%s)^-1" % text, torus3m)
        assert x * inverse == one and inverse * x == one, text
        assert parse_expression("(%s)^-3" % text, torus3m) == inverse ** 3


@pytest.mark.parametrize("model,expr,want", [
    ("polymat:D=3", "x + 1", "E11 + x E11 + E22 + x E22"),
    ("polymat:D=3", "x + I", "E11 + x E11 + E22 + x E22"),
    ("polymat:D=3", "E12^0", "E11 + E22"),
    ("polymat:D=3", "1/2 - 1/2", "0"),
    ("matrix:n=2", "E11 + 1", "2 E11 + E22"),
    ("matrix:n=2", "E12^0", "E11 + E22"),
    ("matrix:n=2", "(1 + E12)^2", "E11 + 2 E12 + E22"),
    ("matrix:n=2", "-2", "-2 E11 - 2 E22"),
    ("torus:p=3", "(2/3 q)^-2 u - (1/2)^3 q^-1 v", "(1/8 + 1/8q) v + 9/4q u"),
    ("torus:p=2", "-(2 - q)^3 u^0", "-27"),
    ("polymat:D=3", "(x + 1/2)^2 E12 - 2^-1 y^0 E21",
     "1/4 E12 + x E12 + x^2 E12 - 1/2 E21"),
])
def test_cli_tensor_backends_read_a_rational_as_a_multiple_of_i(
        capsys, model, expr, want):
    code, out, err = run_cli(capsys, "--model", model, "normalize", "--", expr)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("model, argv, message", [
    ("matrix:n=2", ["normalize", "E12 ⊗ E21"], "E12⊗E21 is not a form"),
    ("matrix:n=2", ["iprod", "S: E12", "E12 ⊗ E21"], "E12⊗E21 is not a form"),
    ("matrix:n=2", ["lie", "S: E12", "E12 ⊗ E21"], "E12⊗E21 is not a form"),
    ("matrix:n=2", ["normalize", "E11⊗E12 - E12⊗E22 + E11⊗E11"],
     "E11⊗E11 + E11⊗E12 - E12⊗E22 is not a form"),
    ("polymat:D=3", ["normalize", "dx (E12 ⊗ E21)"],
     "dx E12⊗E21 is not a form"),
    ("matrix:n=2", ["lie", "S: dE12", "E11"], "S must be a 0-form"),
    ("polymat:D=3", ["normalize", "dx ⊗ E12"], "tensor legs only combine "
     "matrix-direction parts (at position 3)"),
], ids=["matrix-normalize", "matrix-iprod", "matrix-lie", "matrix-sum",
        "polymat", "matrix-S-degree", "polymat-classical-leg"])
def test_cli_tensor_expressions_must_be_forms(capsys, model, argv, message):
    code, out, err = run_cli(capsys, "--model", model, *argv)
    assert (code, out, err) == (2, "", "error: " + message)


def test_cli_q_stays_presented_only(capsys):
    for model in ("matrix:n=2", "polymat:D=3"):
        code, out, err = run_cli(capsys, "--model", model, "normalize",
                                 "E12 + q")
        assert (code, out) == (2, "")
        assert err == ("error: q is only defined on presented models "
                       "(at position 6)")


def test_cli_mixed_derivation_fields_take_rationals(capsys):
    code, out, _ = run_cli(capsys, "--model", "polymat:D=3", "lie",
                           "x: x + 1", "x")
    assert (code, out) == (0, "E11 + x E11 + E22 + x E22")
    code, out, _ = run_cli(capsys, "--model", "polymat:D=3", "lie",
                           "x: 1, S: E12 - E21", "x")
    assert (code, out) == (0, "E11 + E22")


BAD_DERIVATION = "derivation bad: u -> u v, v -> 0\n"
HAMILTONIAN_COMMANDS = (["bracket", "u^2 v^2", "u^2 v^4"],
                        ["hamvec", "u^2 v^2"],
                        ["is-hamiltonian", "u^2 v^2"],
                        ["flow", "u^2 v^2", "u"])


def test_cli_presentation_refuses_an_inconsistent_derivation(capsys,
                                                             tmp_path):
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION)
    code, out, _ = run_cli(capsys, "--presentation", str(path),
                           "is-hamiltonian", "u^2 v^2")
    assert (code, out) == (0, "HAMILTONIAN (relative to ansatz of 1 "
                              "derivations)")
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION
                    + BAD_DERIVATION)
    detail = [
        "derivation bad",
        "consistency checks: 26, failing: 6",
        "  FAIL iprod on rule u du: residual 2 u^2 v",
        "  FAIL lie on rule u du: residual 2 dv u^2",
        "  FAIL iprod on rule du du: residual -2 du u v",
        "  FAIL lie on rule du du: residual -2 dv du u",
        "  FAIL iprod on derived rule u^-1 du: residual 2 v",
        "  FAIL lie on derived rule u^-1 du: residual 2 dv"]
    for argv in HAMILTONIAN_COMMANDS:
        code, out, err = run_cli(capsys, "--presentation", str(path), *argv)
        assert (code, out, err) == (1, "\n".join(["NOT_CONSISTENT"] + detail),
                                    ""), argv
    code, out, _ = run_cli(capsys, "--presentation", str(path), "--format",
                           "json", "hamvec", "u^2 v^2")
    assert code == 1
    assert json.loads(out) == {"status": "NOT_CONSISTENT", "detail": detail}
    # the file loads, and certify reports the inconsistent member
    model = load_presentation(str(path))
    assert [t.label for t, _ in model.space.inconsistent()] == ["bad"]
    assert ("ansatz consistency", False, "2 derivations") in model.certify()
    # the file's algebra is unaffected, and a built-in model is not gated
    code, out, _ = run_cli(capsys, "--presentation", str(path), "normalize",
                           "v u")
    assert (code, out) == (0, "-u v")
    code, out, _ = run_cli(capsys, "--model", "torus:p=2", "is-hamiltonian",
                           "u^2 v^2")
    assert code == 0


def test_cli_singular_ansatz_is_a_mathematical_negative(capsys, tmp_path):
    """omega_tilde with a kernel on a file's ansatz answers SINGULAR, exit
    1, as `check` reports it, not a usage error."""
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION
                    + TORUS2_COPY)
    detail = "omega_tilde has kernel of dimension 1 on the ansatz"
    for argv in HAMILTONIAN_COMMANDS:
        code, out, err = run_cli(capsys, "--presentation", str(path), *argv)
        assert (code, out, err) == (1, "SINGULAR: " + detail, ""), argv
        code, out, err = run_cli(capsys, "--presentation", str(path),
                                 "--format", "json", *argv)
        assert (code, json.loads(out), err) == (
            1, {"status": "SINGULAR", "detail": detail}, ""), argv


def test_cli_presentation_refuses_non_confluent_rules(capsys, tmp_path):
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS.replace(
        "rule v u -> q^-1 u v\n", "rule v u -> q^-1 u v\nrule v u -> u v\n")
        + TORUS2_OMEGA + TORUS2_DERIVATION + BAD_DERIVATION)
    failures = [
        "NOT JOINABLE: v u  (v u -> ... <- v u)",
        "NOT JOINABLE: v u  (v u -> ... <- v u)",
        "NOT JOINABLE: v u dv  (v u -> ... <- u dv)",
        "NOT JOINABLE: v u du  (v u -> ... <- u du)",
        "NOT JOINABLE: v u u^-1  (v u -> ... <- u u^-1)",
        "NOT JOINABLE: v^-1 v u  (v^-1 v -> ... <- v u)"]
    for argv in HAMILTONIAN_COMMANDS:
        code, out, err = run_cli(capsys, "--presentation", str(path), *argv)
        assert (code, err) == (1, ""), argv
        assert out == "\n".join(
            ["NOT_CONFLUENT", "critical pairs: 50, joinable: 44, failing: 6"]
            + ["  " + f for f in failures]), argv
    code, out, _ = run_cli(capsys, "--presentation", str(path), "--format",
                           "json", "bracket", "u^2 v^2", "u^2 v^4")
    assert code == 1
    assert json.loads(out) == {"status": "NOT_CONFLUENT", "critical_pairs": 50,
                               "failures": failures}


UNSOUND_FILES = {
    "inconsistent": TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION
    + BAD_DERIVATION,
    "non-confluent": TORUS2_RELATIONS.replace(
        "rule v u -> q^-1 u v\n", "rule v u -> q^-1 u v\nrule v u -> u v\n")
    + TORUS2_OMEGA + TORUS2_DERIVATION + BAD_DERIVATION,
}


@pytest.mark.parametrize("name, why, confluent", [
    ("inconsistent", "derivation bad fails its consistency check", True),
    ("non-confluent", "rules are not locally confluent: NOT JOINABLE: v u  "
                      "(v u -> ... <- v u)", False),
])
def test_solver_refuses_an_unsound_file(capsys, tmp_path, name, why,
                                        confluent):
    path = tmp_path / "torus.pres"
    path.write_text(UNSOUND_FILES[name])
    model = load_presentation(str(path))
    with pytest.raises(UnsoundPresentationError) as info:
        model.solver
    assert str(info.value) == why
    assert info.value.confluence.all_joinable == confluent
    assert [t.label for t, _ in info.value.inconsistent] == (
        ["bad"] if confluent else [])
    with pytest.raises(UnsoundPresentationError):
        hasattr(model, "solver")
    # certify and check still report, as they did before the gate
    confluence = ("local confluence", confluent,
                  "44 critical pairs" if confluent else "50 critical pairs")
    assert model.certify() == [
        confluence, ("d omega = 0", True, ""),
        ("ansatz consistency", False, "2 derivations"),
        ("omega_tilde injective", True,
         "omega_tilde kernel: 0 (nonsingular on the ansatz)")]
    lines = [
        "%s local confluence %s" % ("PASS" if confluent else "FAIL",
                                    confluence[2]),
        "PASS d omega = 0",
        "FAIL ansatz consistency 2 derivations",
        "PASS omega_tilde injective omega_tilde kernel: 0 (nonsingular on "
        "the ansatz)",
        "PASS magic formula (3 trials, seed 2026)",
        "PASS d L = L d (3 trials, seed 2026)",
        "FAIL L/iprod commutation (3 trials, seed 2026)",
        "PASS iprod antisymmetry (3 trials, seed 2026)",
        "FAIL Lie commutator (3 trials, seed 2026)"]
    assert run_cli(capsys, "--presentation", str(path), "check", "--count",
                   "3") == (1, "\n".join(lines), "")
    # normal forms and the confluence report still answer
    assert run_cli(capsys, "--presentation", str(path), "normalize",
                   "v u")[:2] == (0, "-u v")
    code, out, _ = run_cli(capsys, "--presentation", str(path), "confluence")
    assert code == (0 if confluent else 1)
    assert out.split("\n")[0] == model.confluence().summary().split("\n")[0]


def test_builtin_models_skip_the_soundness_gate(monkeypatch):
    def refuse(calculus):
        raise AssertionError("a built-in model ran the soundness gate")

    monkeypatch.setattr("ncham.models.check_local_confluence", refuse)
    model = build_torus(2)
    model.require_sound()
    a = parse_expression("u^2 v^2", model)
    assert model.solver.solve(a).hamiltonian


@pytest.mark.parametrize("extra, code, verdict", [
    ("", 0, "HAMILTONIAN"), (BAD_DERIVATION, 1, "NOT_CONSISTENT")],
    ids=["sound", "inconsistent"])
def test_cli_checks_a_presentation_file_once(capsys, tmp_path, monkeypatch,
                                             extra, code, verdict):
    import ncham.models

    calls = []
    check = ncham.models.check_local_confluence
    monkeypatch.setattr("ncham.models.check_local_confluence",
                        lambda calculus: calls.append(1) or check(calculus))
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA + TORUS2_DERIVATION
                    + extra)
    got, out, _ = run_cli(capsys, "--presentation", str(path),
                          "is-hamiltonian", "u^2 v^2")
    assert (got, out.split()[0], len(calls)) == (code, verdict, 1)


@pytest.mark.parametrize("model, argv, code, payload", [
    ("matrix:n=3", ["hamvec", "E12 - E21"], 0, {
        "field": {"E11": "-E12 - E21", "E12": "E11 - E22", "E13": "-E23",
                  "E21": "E11 - E22", "E22": "E12 + E21", "E23": "E13",
                  "E31": "-E32", "E32": "E31"},
        "kernel_dimension": 0, "residual": "0", "status": "HAMILTONIAN"}),
    ("cuntz:n=2", ["hamvec", "s1 s2*"], 0, {
        "field": {"s1": "0", "s1*": "-s2*", "s2": "s1", "s2*": "0"},
        "kernel_dimension": 0, "residual": "0", "status": "HAMILTONIAN"}),
    ("polymat:D=3", ["hamvec", "2 (E12 - E21) + x"], 0, {
        "field": {"theta_S(1,2)": "2", "theta_x": "0", "theta_y": "-1"},
        "kernel_dimension": 0, "residual": "0", "status": "HAMILTONIAN"}),
    ("polymat:D=3", ["is-hamiltonian", "x E11"], 1, {
        "ansatz_size": 30, "kernel_dimension": 0,
        "residual": {"(('x',), (3,), (0, 0))": "-1",
                     "((), (0, 3), (1, 0))": "-1",
                     "((), (3, 0), (1, 0))": "1"},
        "status": "NOT_HAMILTONIAN"}),
], ids=["matrix", "cuntz", "polymat", "polymat-not-hamiltonian"])
def test_cli_json_hamvec_golden_per_backend(capsys, model, argv, code,
                                            payload):
    got, out, err = run_cli(capsys, "--model", model, "--format", "json",
                            *argv)
    assert (got, err) == (code, "")
    assert out == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("expr", ["0", "I", "2 - 2 I"])
def test_cli_hamvec_prints_a_zero_matrix_field(capsys, expr):
    """A matrix field lists only its nonzero images; the zero field, of an
    element with da = 0, still prints a line in text mode."""
    code, out, err = run_cli(capsys, "--model", "matrix:n=2", "hamvec", expr)
    assert (code, out, err) == (0, "X = 0", "")
    code, out, err = run_cli(capsys, "--model", "matrix:n=2", "--format",
                             "json", "hamvec", expr)
    assert (code, err) == (0, "")
    assert json.loads(out)["field"] == {}


def test_cli_hamvec_on_an_empty_ansatz(capsys, tmp_path):
    """With no derivation lines the ansatz is empty, and only an element
    with da = 0 is Hamiltonian, with the zero field."""
    path = tmp_path / "torus.pres"
    path.write_text(TORUS2_RELATIONS + TORUS2_OMEGA)
    code, out, err = run_cli(capsys, "--presentation", str(path), "--format",
                             "json", "hamvec", "1")
    assert (code, err) == (0, "")
    assert out == json.dumps({"field": {"u": "0", "v": "0"},
                              "kernel_dimension": 0, "residual": "0",
                              "status": "HAMILTONIAN"}, indent=2,
                             sort_keys=True)


@pytest.mark.parametrize("argv, message", [
    (["--model", "cuntz:n=60", "is-hamiltonian", "1"],
     "cuntz n 60 is outside the bounds 2..16"),
    (["--model", "torus:p=10007", "is-hamiltonian", "1"],
     "torus p 10007 is outside the bounds 1..32"),
    (["--model", "torus:p=2,B=60", "is-hamiltonian", "1"],
     "torus ansatz bound B 60 is outside the bounds 0..8"),
    (["--presentation", "cyclotomic.pres", "normalize", "u"],
     "line 1: cyclotomic order 10007 is outside the bounds 1..32"),
    (["--model", "matrix:n=5", "is-hamiltonian", "E12"],
     "matrix n 5 is outside the bounds 2..4"),
    (["--model", "polymat:D=1000", "normalize", "x"],
     "polymat degree bound D 1000 is outside the bounds 1..48"),
    (["--model", "polymat:D=49", "bracket", "x", "y"],
     "polymat degree bound D 49 is outside the bounds 1..48"),
], ids=["cuntz-n", "torus-p", "torus-B", "cyclotomic-line", "matrix-n",
        "polymat-D", "polymat-D-next"])
def test_cli_model_size_bounds_exit_2_at_once(capsys, tmp_path, monkeypatch,
                                              argv, message):
    import time

    monkeypatch.chdir(tmp_path)
    (tmp_path / "cyclotomic.pres").write_text("cyclotomic 10007\ngenerator u\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: " + message)


def test_model_size_bounds_are_inclusive(capsys, tmp_path):
    for model in ("torus:p=32,B=0", "torus:p=2,B=8", "cuntz:n=16"):
        code, out, _ = run_cli(capsys, "--model", model, "normalize", "2")
        assert (code, out) == (0, "2"), model
    for model, two in (("matrix:n=2", "2 E11 + 2 E22"),
                       ("matrix:n=4", "2 E11 + 2 E22 + 2 E33 + 2 E44"),
                       ("polymat:D=1", "2 E11 + 2 E22"),
                       ("polymat:D=48", "2 E11 + 2 E22")):
        code, out, _ = run_cli(capsys, "--model", model, "normalize", "2")
        assert (code, out) == (0, two), model
    path = tmp_path / "top.pres"
    path.write_text("cyclotomic 32\ngenerator u\n")
    code, out, _ = run_cli(capsys, "--presentation", str(path), "normalize",
                           "q^16 u")
    assert (code, out) == (0, "-u")
