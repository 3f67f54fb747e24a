"""Expression parser and presentation-file loader.

Surface syntax: terms are juxtaposed factors ('*' is an optional
separator) of atoms with an optional integer power, joined by the tensor
sign (leg concatenation); atoms are rationals like 2/3, the scalar q
(presented models), generator or differential names, or parenthesized
expressions.  Products associate left to right.  Negative powers exist
only for nonzero scalars and monomials of invertible generators.
A rational parses to its Fraction and q to its CycScalar; scalars
combine by their own arithmetic, every element type takes them as
coefficients, and an expression that is a scalar alone reads as that
multiple of the unit (I on the tensor backends).

Presentation files are line oriented:

    cyclotomic 2
    generator u invertible
    order dv < du < u < v
    rule v u -> q^-1 u v
    frule u dv -> q dv u
    omega u^-1 du dv v^-1
    derivation theta: u -> u^3 v^2, v -> u^2 v^3

Lines starting with # are comments; `cyclotomic`, `order` and `omega`
may each appear once.  A file builds one calculus: bare, it
parses every rule's right-hand side; then all `rule` lines (which may not
name a differential) go in, then all `frule` lines, each in file order,
then the derived inverse variants, and only then are the optional `omega`
and `derivation` lines read; when present they make the Hamiltonian
commands available on a user presentation.  A file loads to a
ModelDescriptor like the built-in models, with omega None when the file
has no `omega` line; the 2-form is checked to be closed last, once every
line has parsed.
"""

from __future__ import annotations

import operator
import re
from contextlib import contextmanager
from fractions import Fraction

from .algebra import DerivedVariantError, Element, GeneratorSymbol, RuleSpec
from .bigraded import MixedDerivation
from .cartan import PresentedDerivation
from .forms import CalculusPresentation
from .matrixcalc import MatrixDerivation
from .models import MAX_CYCLOTOMIC_ORDER, ModelDescriptor, check_bound, theta_h
from .scalars import CycScalar, power, q_power
from .symplectic import Backend


def _is_scalar(x):
    return isinstance(x, (Fraction, CycScalar))


def _bits(c):
    """The largest bit length among the numerators and denominators of an
    int, Fraction or CycScalar; 0 when they are all 0, 1 or -1, so that no
    power of a unit coefficient is refused."""
    ints = ((c.den, *c.nums) if isinstance(c, CycScalar)
            else (c.numerator, c.denominator))
    b = max(abs(n).bit_length() for n in ints)
    return b if b > 1 else 0


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<rational>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*\*?)
  | (?P<pow>\^-?\d+)
  | (?P<op>[-+*()⊗])
""", re.VERBOSE)


def tokenize(text):
    """Yield (kind, token, position) in order, ending with an "end" token;
    a character no token starts with raises when the scan reaches it."""
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            yield m.lastgroup, m.group(), pos
        pos = m.end()
    yield "end", "", len(text)


class ExpressionParser:
    """Recursive descent over the token stream, resolving names in a
    namespace (name -> element) over a calculus.

    The parser reads a token only when it must look at it, one ahead of
    the last it consumed, so an input is refused at its leftmost fault and
    a bound is hit before the rest of the input is read.

    Parentheses may nest at most MAX_NESTING deep, which keeps the
    recursion far inside Python's stack limit.  A power k needs
    |k| <= MAX_POWER: a k-th generator power is a k-letter word, so its
    cost grows linearly in |k|.  So a presented element's k-th power needs
    |k| times its longest word <= MAX_POWER letters, which refuses nested
    powers such as ((u^1000)^1000)^2.  Likewise |k| times b <= MAX_POWER_BITS,
    b the largest bit length among the numerators and denominators of the
    atom's coefficients (0 when all are 0, 1 or -1): it bounds the size of
    the coefficients a power builds, below Python's 4,300-digit limit on
    printing an int, so 2^5000 u parses and 2^7001 u is refused.
    """

    MAX_NESTING = 100
    MAX_POWER = 10 ** 6
    MAX_POWER_BITS = 14000

    def __init__(self, namespace, calculus):
        self.namespace = namespace
        self.calculus = calculus            # None for tensor backends
        # a rational r reads as r times the unit; tensor backends name it I
        self.unit = namespace["I"] if calculus is None else calculus.one()

    def parse(self, text):
        self._tokens = tokenize(text)
        self._ahead = None
        self.depth = 0
        value = self._expr()
        kind, tok, pos = self._peek()
        if kind != "end":
            raise ParseError("trailing input %r" % tok, pos)
        value = self._to_element(value)
        # a sum of ⊗ terms can be a form where no term is, as dE12 is
        if self.calculus is None and not value.in_kernel():
            raise ParseError("%s is not a form" % value)
        return value

    def _to_element(self, value):
        return self.unit * value if _is_scalar(value) else value

    def _peek(self):
        if self._ahead is None:
            self._ahead = next(self._tokens)
        return self._ahead

    def _next(self):
        tok = self._peek()
        self._ahead = None
        return tok

    def _expr(self):
        value = self._term()
        while True:
            kind, tok, pos = self._peek()
            if not (kind == "op" and tok in "+-"):
                return value
            self._next()
            rhs = self._term()
            if not (_is_scalar(value) and _is_scalar(rhs)):
                value, rhs = self._to_element(value), self._to_element(rhs)
            value = self._combine(pos, operator.add if tok == "+"
                                  else operator.sub, value, rhs)

    def _combine(self, pos, op, *operands):
        """op(*operands), its refusal reported as a ParseError at pos."""
        try:
            return op(*operands)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), pos)

    def _term(self):
        negate = False
        kind, tok, _ = self._peek()
        while kind == "op" and tok in "+-":
            negate ^= tok == "-"
            self._next()
            kind, tok, _ = self._peek()
        value = self._factor()
        while True:
            # a product is juxtaposition or '*'
            kind, tok, pos = self._peek()
            if kind == "op" and tok == "*":
                self._next()
            elif not (kind in ("rational", "name")
                      or (kind == "op" and tok == "(")):
                break
            value = self._combine(pos, operator.mul, value, self._factor())
        return -value if negate else value

    def _factor(self):
        value = self._primary()
        while True:
            kind, tok, pos = self._peek()
            if not (kind == "op" and tok == "⊗"):
                return value
            self._next()
            rhs = self._primary()
            if not hasattr(value, "tensor") or _is_scalar(rhs):
                raise ParseError("tensor legs need forms of a tensor "
                                 "backend", pos)
            value = self._combine(pos, value.tensor, rhs)

    def _primary(self):
        atom = self._atom()
        kind, tok, pos = self._peek()
        if kind == "pow":
            self._next()
            k = int(tok[1:])
            if abs(k) > self.MAX_POWER:
                raise ParseError("power %d exceeds the bound %d in absolute "
                                 "value" % (k, self.MAX_POWER), pos)
            return self._power(atom, k, pos)
        return atom

    def _power(self, atom, k, pos):
        bits = _bits(atom) if _is_scalar(atom) else max(
            map(_bits, atom.coordinates().values()), default=0)
        if abs(k) * bits > self.MAX_POWER_BITS:
            raise ParseError("power %d of a %d-bit coefficient exceeds the "
                             "bound of %d bits" % (k, bits, self.MAX_POWER_BITS),
                             pos)
        if _is_scalar(atom):
            if k < 0 and not atom:
                raise ParseError("division by zero: 0 to the power %d" % k, pos)
            return atom ** k
        if isinstance(atom, Element):
            longest = max(map(len, atom.terms), default=0)
            if abs(k) * longest > self.MAX_POWER:
                raise ParseError("power %d of a %d-letter word exceeds the "
                                 "bound of %d letters"
                                 % (k, longest, self.MAX_POWER), pos)
        if k < 0:
            # c w has the inverse c^-1 w^-1: w reversed, each letter inverted
            if not (isinstance(atom, Element) and len(atom.terms) == 1):
                raise ParseError("negative powers need an invertible "
                                 "generator", pos)
            ((word, c),) = atom.terms.items()
            table = atom.system.table
            for li in word:
                if li not in table.inverse_of:
                    lt = table.letters[li]
                    raise ParseError(
                        "differentials are not invertible: %s" % lt.display
                        if lt.diff else "generator %s is not invertible"
                        % lt.base, pos)
            inverse = tuple(table.inverse_of[li] for li in reversed(word))
            atom = Element(atom.system, {inverse: c ** -1})
        return power(atom, abs(k), self.unit)

    def _atom(self):
        kind, tok, pos = self._next()
        if kind == "rational":
            if "/" in tok:
                num, den = tok.split("/")
                if not int(den):
                    raise ParseError("division by zero in %s" % tok, pos)
                return Fraction(int(num), int(den))
            return Fraction(int(tok))
        if kind == "name":
            if tok == "q":
                if self.calculus is None:
                    raise ParseError("q is only defined on presented models", pos)
                return q_power(self.calculus.p, 1)
            if tok in self.namespace:
                return self.namespace[tok]
            raise ParseError("unknown generator %r" % tok, pos)
        if kind == "op" and tok == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise ParseError("parentheses nest deeper than %d"
                                 % self.MAX_NESTING, pos)
            value = self._expr()
            self.depth -= 1
            kind2, tok2, pos2 = self._next()
            if not (kind2 == "op" and tok2 == ")"):
                raise ParseError("expected ')'", pos2)
            return value
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError("unexpected token %r" % tok, pos)


def parse_expression(text, model):
    return ExpressionParser(model.namespace(), model.calculus).parse(text)


def _spec_chunks(text, sep):
    """(chunk, key, value) of each comma-separated 'key <sep> value' chunk
    of a derivation spec; a chunk without sep, or a key given twice, is a
    ParseError naming the chunk."""
    out, keys = [], set()
    for chunk in text.split(","):
        key, _, value = chunk.partition(sep)
        key, chunk = key.strip(), chunk.strip()
        if not value:
            raise ParseError("malformed derivation chunk %r" % chunk)
        if key in keys:
            raise ParseError("derivation chunk %r: %r is given twice"
                             % (chunk, key))
        keys.add(key)
        out.append((chunk, key, value))
    return out


def _image_derivation(text, parser, label=None):
    """The derivation 'u -> expr, v -> expr' on the parser's calculus."""
    names = {g.name for g in parser.calculus.generators}
    images = {}
    for chunk, name, rhs in _spec_chunks(text, "->"):
        if name not in names:
            raise ParseError("derivation chunk %r: %r is no generator"
                             % (chunk, name))
        images[name] = parser.parse(rhs)
    return PresentedDerivation(parser.calculus, images, label=label)


def parse_derivation(text, model):
    """theta specs: 'u -> expr, v -> expr' | 'h: expr' | 'S: expr' |
    'x: expr, y: expr, S: expr'."""
    parser = ExpressionParser(model.namespace(), model.calculus)
    if "->" in text:
        if model.calculus is None:
            raise ParseError("generator-image derivations need a presented model")
        return _image_derivation(text, parser)
    fields = {key: value.strip() for _, key, value in _spec_chunks(text, ":")}
    if set(fields) == {"h"}:
        if model.kind != "cuntz":
            raise ParseError("theta_h derivations are specific to the Cuntz model")
        h = parser.parse(fields["h"])
        return theta_h(model.calculus, h, model.params["n"])
    if model.kind == "matrix":
        if set(fields) != {"S"}:
            raise ParseError("matrix derivations take a single S: <matrix>")
        s = parser.parse(fields["S"])
        if s.degree() != 0:
            raise ParseError("S must be a 0-form")
        return MatrixDerivation(s)
    if model.kind == "polymat":
        unknown = sorted(set(fields) - {"x", "y", "S"})
        if unknown:
            raise ParseError("mixed derivation field %r is none of x, y, S"
                             % unknown[0])

        def zero_form_of(key):
            el = parser.parse(fields[key])
            t = el.component(())
            if set(el.parts) - {()} or t.degree() != 0:
                raise ParseError("%s must be a 0-form" % key)
            return t.to_matrix()

        def poly_of(key):
            if key not in fields:
                return 0
            mat = zero_form_of(key)
            if mat[0][1] or mat[1][0] or mat[0][0] != mat[1][1]:
                raise ParseError("%s must be a multiple of the identity" % key)
            return mat[0][0]

        mat = zero_form_of("S") if "S" in fields else [[0, 0], [0, 0]]
        theta_x, theta_y = poly_of("x"), poly_of("y")
        if mat[0][0] or mat[1][1] or mat[0][1] != -mat[1][0]:
            raise ParseError("theta_S must be antisymmetric")
        return MixedDerivation(theta_x, theta_y, mat[0][1])
    raise ParseError("could not interpret derivation spec %r" % text)


# -- presentation files ---------------------------------------------------


@contextmanager
def _at_line(lineno):
    """Re-raise a failure of the enclosed step as a ParseError that names
    the presentation-file line it came from."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise ParseError("line %d: %s" % (lineno, detail)) from None


def load_presentation(path):
    """Parse a presentation file; returns a ModelDescriptor.

    A line that cannot be read, or that names an unknown letter, is a
    ParseError naming that line; so is an `order` line that leaves out a
    generator, a `rule` line that names a differential, a second
    `cyclotomic`, `order` or `omega` line, a rule whose derived inverse
    variant does not decrease, and, checked after every other line, an
    `omega` line whose 2-form is not closed.
    """
    p = 1
    generators = []
    order = None
    first_line = {}                     # once-only directive -> its line
    body = []                           # (lineno, directive, text)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            with _at_line(lineno):
                if head in ("cyclotomic", "order", "omega"):
                    if head in first_line:
                        raise ParseError("%s declared twice (first on line %d)"
                                         % (head, first_line[head]))
                    first_line[head] = lineno
                if head == "cyclotomic":
                    p = check_bound("cyclotomic order", int(rest), 1,
                                    MAX_CYCLOTOMIC_ORDER)
                elif head == "generator":
                    parts = rest.split()
                    if not parts:
                        raise ParseError("generator line names no generator")
                    name, names = parts[0], {g.name for g in generators}
                    if name in names:
                        raise ParseError("generator %r declared twice" % name)
                    if "d" + name in names or name in {"d" + n for n in names}:
                        raise ParseError("generator %r: generator and "
                                         "differential names must differ" % name)
                    generators.append(GeneratorSymbol(
                        name, invertible="invertible" in parts[1:]))
                elif head == "order":
                    order = [t.strip() for t in rest.split("<")]
                elif head in ("rule", "frule", "omega", "derivation"):
                    body.append((lineno, head, rest))
                else:
                    raise ParseError("unknown directive %r" % head)
    if not generators:
        raise ParseError("presentation declares no generators")

    # without an order line the checks above leave nothing here to fail
    with _at_line(first_line.get("order")):
        calc = CalculusPresentation(generators, [], [], p=p,
                                    letter_order=order)
    rhs_parser = ExpressionParser(calc.namespace(), calc)
    letters = calc.system.table.letters

    def parse_rule(text):
        lhs_txt, arrow, rhs_txt = text.partition("->")
        if not arrow:
            raise ParseError("rule %r has no ->" % text)
        lhs = []
        for tok in lhs_txt.split():
            name, _, power = tok.partition("^")
            lhs.append((name, int(power) if power else 1))
        rhs_terms = []
        for word, coeff in rhs_parser.parse(rhs_txt.strip()).terms.items():
            factors = []
            for li in word:
                lt = letters[li]
                factors.append((("d" + lt.base) if lt.diff else lt.base, lt.exp))
            rhs_terms.append((coeff, factors))
        return RuleSpec.make(lhs, rhs_terms)

    # every right-hand side is read as written, before any rule can rewrite it
    rules = {"rule": [], "frule": []}       # head -> [(lineno, spec)]
    for lineno, head, text in body:
        if head in rules:
            with _at_line(lineno):
                rules[head].append((lineno, parse_rule(text)))
    line_of = {}
    for head, add in (("rule", calc.add_algebra_rule),
                      ("frule", calc.system.add_rule)):
        for lineno, spec in rules[head]:
            with _at_line(lineno):
                line_of[add(spec)] = lineno
    try:
        calc.finish_rules()
    except DerivedVariantError as exc:
        raise ParseError("line %d: %s" % (line_of[exc.rule], exc)) from None
    namespace = calc.namespace()
    parser = ExpressionParser(namespace, calc)

    derivations = []
    omega = None
    for lineno, head, text in body:
        with _at_line(lineno):
            if head == "omega":
                omega = parser.parse(text) if text else None
            elif head == "derivation":
                name, _, spec = text.partition(":")
                derivations.append(_image_derivation(spec, parser,
                                                     label=name.strip()))
    gen_names = [g.name for g in generators]

    def random_form(rng, max_degree=2):
        out = calc.zero()
        for _ in range(rng.randint(1, 2)):
            t = calc.scalar(rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, 2)):
                t = t * calc.gen(rng.choice(gen_names))
            for _ in range(rng.randint(0, max_degree)):
                t = t * calc.dgen(rng.choice(gen_names))
            out = out + t
        return out

    def random_derivation(rng):
        if not derivations:
            raise ValueError("presentation file declares no derivations")
        combo = rng.choice(derivations)
        for _ in range(rng.randint(0, 1)):
            combo = combo + rng.choice([1, -1, 2]) * rng.choice(derivations)
        return combo

    model = ModelDescriptor(
        kind="file", params={}, backend=Backend.presented(calc), calculus=calc,
        omega=omega, basis=lambda: derivations, random_form=random_form,
        random_derivation=random_derivation, namespace=namespace)
    # the SymplecticForm checks d omega = 0; its error names the omega line
    with _at_line(first_line.get("omega")):
        model.omega
    return model
