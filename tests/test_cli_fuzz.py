"""Exit-code contract of `ncham normalize` and `ncham d` under generated
input, and of `ncham is-hamiltonian` on generated presentation files.

Inputs come from a small grammar over the names of torus:p=2,
matrix:n=2 and cuntz:n=2 (so most names are foreign to the chosen
model), rationals including zero denominators, q, the operators, the
tensor sign, parentheses nested up to three deep and stray characters.
A power is either small or above ExpressionParser.MAX_POWER.  Every
input must give exit code 0 or 2 and never raise, and must give the same
result whether or not "--" precedes it.

`bracket`, `hamvec`, `flow`, `iprod` and `lie` take these inputs or sums
of products over the chosen model's own names, most of which parse.
`iprod` and `lie` also take a derivation spec from a second grammar: one
to four chunks, each a generator image `u -> ...` or a field `h: ...`,
`S: ...`, `x: ...` or `y: ...` under the heads of all three models, or a
malformed chunk; a chunk may repeat.  Every input must give exit code 0,
1 or 2 and never raise, again the same with or without "--".

A presentation file is the README's torus file after one to three
edits, each of which drops a line, swaps it for a valid or malformed
line of its directive, or inserts a line of any directive.
`is-hamiltonian` on it must give exit code 0, 1 or 2 and never raise,
and must refuse the file (exit 1, NOT_CONFLUENT or NOT_CONSISTENT)
exactly when the library's `model.solver` raises
UnsoundPresentationError.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncham.algebra import ReductionBudgetExceeded
from ncham.cli import main
from ncham.exprparse import ExpressionParser, load_presentation
from ncham.models import UnsoundPresentationError

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


def check_contract(model, command, *texts, codes=(0, 2)):
    # "--" keeps argparse from reading a leading "-" as an option; without
    # it, an expression that names no option must read the same
    got = run(["--model", model, command, "--", *texts])
    assert got[0] in codes, (model, command, texts, got)
    assert run(["--model", model, command, *texts]) == got, (model, command,
                                                            texts)


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


# each model's own names and derivation chunks, in sums of products with
# small powers: most of these parse, so the commands get past the parser
OWN_NAMES = {"torus:p=2": ("u", "v", "(u^-1)", "(v^-1)", "du", "q"),
             "matrix:n=2": ("E11", "E12", "E21", "E22", "I", "dE12"),
             "cuntz:n=2": ("s1", "s2", "s1*", "s2*", "ds1")}
OWN_HEADS = {"torus:p=2": ("u ->", "v ->"), "matrix:n=2": ("S:",),
             "cuntz:n=2": ("h:",)}
OWN_DIFFERENTIALS = {"torus:p=2": ("du", "dv"), "matrix:n=2": ("dE12", "dE21"),
                     "cuntz:n=2": ("ds1", "ds2*")}


def own_expressions(names):
    factor = st.builds(str.__add__, st.sampled_from(names + ("2", "1/3")),
                       st.sampled_from(("", "", "^2")))
    term = st.lists(factor, min_size=1, max_size=3).map(" ".join)
    return st.builds(str.__add__, st.sampled_from(("", "-")),
                     st.lists(term, min_size=1, max_size=3).map(" + ".join))


OWN_EXPRESSIONS = {m: own_expressions(n) for m, n in OWN_NAMES.items()}


def operands(model):
    """A sum over the model's names, or an input of the shared grammar."""
    return st.one_of(OWN_EXPRESSIONS[model], inputs())


def one_forms(model):
    """Mostly 1-forms, for iprod and lie."""
    return st.one_of(st.builds("({}) {}".format, OWN_EXPRESSIONS[model],
                               st.sampled_from(OWN_DIFFERENTIALS[model])),
                     operands(model))


# derivation specs: chunks with the heads of all three models (images,
# fields, names of no generator), malformed chunks, and repeated chunks
HEADS = ("u ->", "v ->", "du ->", "w ->", "E12 ->", "s1 ->", "h:", "S:",
         "x:", "y:", "u:", "E12:")
MALFORMED_CHUNKS = ("", "u", "-> u", "u ->", "h:", ": s1", "u -> v -> u",
                    "S: E12 : E21", "u => v", "x: 1: 2")
IMAGES = expressions(1)


@st.composite
def derivation_specs(draw, model):
    chunk = st.one_of(
        st.builds("{} {}".format,
                  st.sampled_from(OWN_HEADS[model]) | st.sampled_from(HEADS),
                  OWN_EXPRESSIONS[model] | IMAGES),
        st.sampled_from(MALFORMED_CHUNKS))
    parts = draw(st.lists(chunk, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 3:
        parts.append(draw(st.sampled_from(parts)))      # a repeated chunk
    return draw(st.sampled_from((", ", ",", " , "))).join(parts)


@st.composite
def calls(draw, command):
    """(model, arguments) of one call of `command`."""
    model = draw(st.sampled_from(MODELS))
    if command in ("iprod", "lie"):
        return model, [draw(derivation_specs(model)), draw(one_forms(model))]
    count = 1 if command == "hamvec" else 2
    return model, [draw(operands(model)) for _ in range(count)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(call=calls("bracket"))
@example(call=("torus:p=2", ["-u^2 v^2", "-u^2 v^4"]))
@example(call=("matrix:n=2", ["E12", "du"]))
def test_bracket_exits_0_1_or_2(call):
    check_contract(call[0], "bracket", *call[1], codes=(0, 1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(call=calls("hamvec"))
@example(call=("matrix:n=2", ["0"]))
@example(call=("torus:p=2", ["-u"]))
def test_hamvec_exits_0_1_or_2(call):
    check_contract(call[0], "hamvec", *call[1], codes=(0, 1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(call=calls("flow"))
@example(call=("cuntz:n=2", ["s1 s2*", "-s2 s1*"]))
@example(call=("torus:p=2", ["u", "v"]))
def test_flow_exits_0_1_or_2(call):
    check_contract(call[0], "flow", *call[1], codes=(0, 1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(call=calls("iprod"))
@example(call=("torus:p=2", ["u -> 2 u^3 v^2, v -> -2 u^2 v^3", "du"]))
@example(call=("matrix:n=2", ["-> u", "dE12"]))
def test_iprod_exits_0_1_or_2(call):
    check_contract(call[0], "iprod", *call[1], codes=(0, 1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(call=calls("lie"))
@example(call=("torus:p=2", ["u -> u v, v -> 0", "-u"]))
@example(call=("cuntz:n=2", ["h: s1 s2*, h: s1", "s1"]))
def test_lie_exits_0_1_or_2(call):
    check_contract(call[0], "lie", *call[1], codes=(0, 1, 2))


TORUS_FILE = (
    "cyclotomic 2", "generator u invertible", "generator v invertible",
    "order dv < du < u < v", "rule v u -> q^-1 u v", "frule u dv -> q dv u",
    "frule v du -> q^-1 du v", "frule u du -> du u", "frule v dv -> dv v",
    "frule du dv -> -q dv du", "frule du du -> 0", "frule dv dv -> 0",
    "omega u^-1 du dv v^-1",
    "derivation xa: u -> 2 u^3 v^2, v -> -2 u^2 v^3")
# valid and malformed lines of each directive
LINES = {
    "cyclotomic": ("cyclotomic 1", "cyclotomic 3", "cyclotomic 0",
                   "cyclotomic 33", "cyclotomic two"),
    "generator": ("generator v", "generator w", "generator w invertible",
                  "generator du", "generator u invertible", "generator"),
    "order": ("order u < v", "order v < u < du < dv", "order dv < du < u < w",
              "order u <"),
    "rule": ("rule v u -> u v", "rule v u -> -u v", "rule u v -> q v u",
             "rule u u -> 0", "rule v v -> 1", "rule v u", "rule du u -> u du",
             "rule v u -> w"),
    "frule": ("frule du du -> du", "frule dv du -> -q^-1 du dv",
              "frule u du -> -du u", "frule v du -> du v", "frule u du ->",
              "frule du -> u"),
    "omega": ("omega du dv", "omega u du dv", "omega du", "omega",
              "omega u^-1 du dv v^-1 + du dv", "omega (du"),
    "derivation": ("derivation bad: u -> u v, v -> 0",
                   "derivation id: u -> u, v -> v",
                   "derivation zero: u -> 0, v -> 0",
                   "derivation xb: u -> u^2 v, v -> -u v^2",
                   "derivation d: u -> du", "derivation w: w -> u",
                   "derivation e: u", "derivation xa: u -> 2 u^3 v^2"),
}
ALL_LINES = sorted(line for lines in LINES.values() for line in lines)


@st.composite
def presentation_files(draw):
    """The torus file after one to three edits: a line dropped, swapped
    for a line of its directive, or a line of any directive inserted."""
    lines = list(TORUS_FILE)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "swap", "insert")))
        if edit == "drop":
            del lines[i]
        elif edit == "swap":
            lines[i] = draw(st.sampled_from(LINES[lines[i].split()[0]]))
        else:
            lines.insert(i, draw(st.sampled_from(ALL_LINES)))
    return "\n".join(lines) + "\n"


def solver_raises_the_gate_error(path):
    try:
        load_presentation(path).solver
    except UnsoundPresentationError:
        return True
    except (ValueError, AttributeError, ReductionBudgetExceeded):
        pass            # the file does not load, or has no omega: exit 2
    return False


@pytest.fixture(scope="module")
def pres_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.pres"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=presentation_files())
@example(text="\n".join(TORUS_FILE) + "\n")
@example(text="\n".join(TORUS_FILE) + "\nderivation bad: u -> u v, v -> 0\n")
@example(text="\n".join(TORUS_FILE).replace(
    "rule v u -> q^-1 u v", "rule v u -> q^-1 u v\nrule v u -> u v") + "\n")
@example(text="generator w\n" + "\n".join(TORUS_FILE) + "\n")
def test_is_hamiltonian_on_presentation_files(pres_path, text):
    pres_path.write_text(text)
    code, out, err = run(["--presentation", str(pres_path), "is-hamiltonian",
                          "u^2 v^2"])
    assert code in (0, 1, 2), (text, code, out, err)
    refused = code == 1 and out.split("\n")[0] in ("NOT_CONFLUENT",
                                                    "NOT_CONSISTENT")
    assert refused == solver_raises_the_gate_error(str(pres_path)), (text,
                                                                     out)
