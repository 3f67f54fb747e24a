"""Exit-code contract of `ncham normalize` and `ncham d` under generated
input.

Inputs come from a small grammar over the names of torus:p=2,
matrix:n=2 and cuntz:n=2 (so most names are foreign to the chosen
model), rationals including zero denominators, q, the operators, the
tensor sign, parentheses nested up to three deep and stray characters.
A power is either small or above ExpressionParser.MAX_POWER.  Every
input must give exit code 0 or 2 and never raise, and must give the same
result whether or not "--" precedes it.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncham.cli import main
from ncham.exprparse import ExpressionParser

MODELS = ("torus:p=2", "matrix:n=2", "cuntz:n=2")
NAMES = ("u", "v", "du", "dv", "E11", "E12", "E21", "E22", "dE12", "dE21",
         "I", "s1", "s2", "s1*", "s2*", "ds1", "ds2*", "q", "w")
RATIONALS = ("0", "1", "2", "3/4", "7/2", "1/0", "0/5")
SEPARATORS = ("", " ", "*", " ⊗ ", " + ", " - ")
STRAY = tuple("()^/*-+⊗@#.,;!~ 0")

HUGE = st.integers(ExpressionParser.MAX_POWER + 1, 10 ** 12)
HUGE_POWERS = st.builds(lambda k, sign: "^%s%d" % (sign, k),
                        HUGE, st.sampled_from(("", "-")))


def powers(small):
    """No power, a power with |k| <= small, or one past the bound."""
    return st.one_of(st.just(""),
                     st.integers(-small, small).map("^{}".format),
                     HUGE_POWERS)


def expressions(depth):
    atom = st.sampled_from(NAMES + RATIONALS)
    factor = st.builds(str.__add__, atom, powers(3))
    if depth:
        # a group's power is at most 2, so nested groups stay small
        group = st.builds(lambda e, k: "(%s)%s" % (e, k),
                          expressions(depth - 1), powers(2))
        factor = st.one_of(factor, group)
    rest = st.lists(st.tuples(st.sampled_from(SEPARATORS), factor),
                    max_size=2)
    return st.builds(
        lambda sign, first, more: sign + first + "".join(s + f for s, f in more),
        st.sampled_from(("", "-")), factor, rest)


EXPRESSIONS = expressions(3)


@st.composite
def inputs(draw):
    text = draw(EXPRESSIONS)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(STRAY)) + text[i:]
    return text


def run(argv):
    """(exit code, stdout, stderr) of the CLI; argparse may not exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(model, command, text):
    # "--" keeps argparse from reading a leading "-" as an option; without
    # it, an expression that names no option must read the same
    got = run(["--model", model, command, "--", text])
    assert got[0] in (0, 2), (model, command, text, got)
    assert run(["--model", model, command, text]) == got, (model, command,
                                                          text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=st.sampled_from(MODELS), text=inputs())
@example(model="torus:p=2", text="u^1000001")
@example(model="torus:p=2", text="2^99999999 u")
@example(model="matrix:n=2", text="E11 ⊗ 0")
@example(model="torus:p=2", text="-u")
def test_normalize_exits_0_or_2(model, text):
    check_contract(model, "normalize", text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=st.sampled_from(MODELS), text=inputs())
@example(model="torus:p=2", text="-u v")
@example(model="cuntz:n=2", text="-s1*")
def test_d_exits_0_or_2(model, text):
    check_contract(model, "d", text)
