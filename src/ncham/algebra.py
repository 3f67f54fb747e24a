"""Presented noncommutative algebras with oriented rewriting.

Words are tuples of interned letter indices.  A letter is a single power
g or g^-1 of an algebra generator, or a degree-1 differential dg; the
letter table of a presentation fixes the precedence used by the
degree-lexicographic term order, so word comparison is just comparison of
(len(word), word).  Inverse cancellation g g^-1 -> 1 is structural: it
happens during concatenation, and stored words never contain an adjacent
inverse pair.  `RewriteSystem.leibniz` is the one derivation-expansion
routine: d, iprod and lie are per-letter substitutions over it, and
apply is lie on 0-forms.

Rewrite rules replace a subword (the lhs) by an element (the rhs); every
rhs word must be strictly smaller than the lhs in the term order, which
makes rewriting terminate.  `rewrite_word` always rewrites the leftmost
redex, and resumes the scan of each new word at the rewrite junction: no
redex of concat(pre, rhs word, suf) starts before i - c - (L - 1), where i
is the redex just rewritten, c the inverse pairs the concatenation
cancelled and L the longest lhs.

A q-commutation system (the torus calculus at every p, and files like
the README's) normalizes by sorting instead, through a `SortTable`
compiled when its rules are finished.  In such a system every rule is a
swap a b -> c b a (c != 0) or a square-zero rule a a -> 0 on a
non-invertible letter, every pair of distinct non-inverse letters has a
swap, and each invertible g sits next to g^-1 in the precedence.  Its
overlaps x y z of three swaps and those with a square-zero rule always
join; those of g g^-1 y and y g g^-1 join exactly when the swap scalars
of g and g^-1 past y multiply to 1, which the table also requires.  So
the rules are locally confluent, and by Bergman's diamond lemma the
normal form is unique: the letters sorted by precedence, g against g^-1
cancelled, times c^n for each pair type swapped n times, and zero if a
square-zero letter is left twice.  `reduce_word` takes that path when the
table exists and the rewriting path otherwise; both fill the one
normal-form cache.  There `leibniz` also expands a run g^r of one
letter as one raw word times a q-number: the r words that replace one
copy each sort to one word, and their coefficients differ only by the
swaps of the moved copies of g past the image (see `SortTable.run_sum`).
`relations` lists every installed rule as a relation
lhs - rhs, built once per rule set for the consistency check; adding a
rule drops the list.

`check_local_confluence` enumerates all
overlap and inclusion ambiguities between rule left-hand sides (including
the implicit cancellation rules of invertible generators) and reports
whether both branches reduce to the same normal form.

This module has no presentation type of its own: an algebra-only
presentation is a `forms.CalculusPresentation` with no form rules.
`Form` and `Derivation` hold what every calculus's types share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd

from .scalars import (CycScalar, Printed, _canonical, _power_table, cyc_one,
                      cyc_zero, euler_phi, power, q_power)


class ReductionBudgetExceeded(RuntimeError):
    """Raised when a single normalize call exceeds its rewrite-step budget.

    Decreasing rules always terminate, but the number of steps can grow
    exponentially in the length of the word; the budget bounds that.
    """


class DegreeError(ValueError):
    """An operation received a form of inadmissible degree."""


class Form(Printed):
    """Base of `Element`, `TensorForm` and `BigradedForm`, which provide
    `+`, unary `-` and `degrees()` (sorted; none for a zero form, except on
    a TensorForm, which keeps its degree) and get `-`, `degree()`, their
    text, `is_zero` and `coordinates` here.  The last two read `terms`,
    which stores no zero; `BigradedForm` stores `parts` and has its own."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def coordinates(self):
        """key -> coefficient; the live dict, not a copy."""
        return self.terms

    def __sub__(self, other):
        # __add__, not +, so that a foreign operand fails naming -
        try:
            other = -other
        except TypeError:
            return NotImplemented
        return self.__add__(other)

    def degree(self):
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("form is not homogeneous: degrees %s" % degs)
        return degs[0]


class Derivation:
    """Base of the derivation types, which provide `+`, scalar `*` from the
    left, `iprod` (theta _|, which calls `_iprod_guard` first), `lie`
    (L_theta) and `coordinates()`, nonzero entries only, which `is_zero`
    tests.  theta(a) is `apply(a)`, L_theta on a 0-form; only a presented
    derivation has relations for `consistency()` to check."""

    __slots__ = ()

    def is_zero(self):
        return not self.coordinates()

    def apply(self, a):
        if any(a.degrees()):
            raise ValueError("apply expects a 0-form; use lie for forms")
        return self.lie(a)

    def __call__(self, a):
        return self.apply(a)

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        # __add__, as in Form.__sub__
        return self.__add__((-1) * other)

    @staticmethod
    def _iprod_guard(x):
        """_| lowers the degree, so it takes no nonzero 0-form."""
        if x.degrees() == [0]:
            raise DegreeError("interior product needs degree >= 1")

    def consistency(self):
        return None


class DerivedVariantError(ValueError):
    """A derived inverse variant does not decrease; `rule` is its source."""

    def __init__(self, message, rule):
        super().__init__(message)
        self.rule = rule


class UnknownGeneratorError(KeyError):
    pass


class Record:
    """Base of the plain record types: a repr over the fields named in
    `__slots__`, in order, as `Letter(base='u', exp=1, diff=False)`."""

    __slots__ = ()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Value(Record):
    """An immutable record, usable as a dict key: field-wise == and hash.
    A subclass's constructor sets every field once, through `_set`."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._fields()


class GeneratorSymbol(Value):
    __slots__ = ("name", "invertible")

    def __init__(self, name, invertible=False):
        self._set(name, invertible)


class Letter(Value):
    __slots__ = ("base", "exp", "diff")

    def __init__(self, base, exp, diff=False):
        self._set(base, exp, diff)      # exp +1 or -1; differentials +1

    @property
    def display(self):
        if self.diff:
            return "d" + self.base
        return self.base if self.exp == 1 else self.base + "^-1"


class LetterTable:
    """Interns letters as small integers; index order is the precedence."""

    def __init__(self, letters):
        self.letters = tuple(letters)
        self.by_display = {lt.display: i for i, lt in enumerate(self.letters)}
        if len(self.by_display) != len(self.letters):
            raise ValueError("duplicate letters in precedence list")
        self.inverse_of = {}
        for i, lt in enumerate(self.letters):
            if not lt.diff:
                j = self.by_display.get(Letter(lt.base, -lt.exp).display)
                if j is not None:
                    self.inverse_of[i] = j
        self.is_diff = tuple(lt.diff for lt in self.letters)

    def concat(self, *parts):
        """Concatenate reduced words, cancelling inverse pairs at the junctions.

        Each part must be reduced (no adjacent inverse pair), as every
        stored word is; then only the junctions between parts can cancel,
        and a cancellation may cascade into the letters on either side.
        """
        inv = self.inverse_of
        out = ()
        for part in parts:
            k, m = 0, len(out)
            while k < len(part) and m and inv.get(part[k]) == out[m - 1]:
                k += 1
                m -= 1
            out = out[:m] + part[k:]
        return out

    def word_degree(self, word):
        isd = self.is_diff
        return sum(1 for li in word if isd[li])


def word_key(word):
    return (len(word), word)


class RuleSpec(Value):
    """A rewrite rule at the display-name level: lhs letters, rhs terms.

    lhs: sequence of (name, exp) with name a generator name or d<gen>;
    rhs: sequence of (scalar, [(name, exp), ...]) terms.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self._set(lhs, rhs)

    @classmethod
    def make(cls, lhs, rhs):
        return cls(tuple(tuple(f) for f in lhs),
                   tuple((c, tuple(tuple(f) for f in w)) for c, w in rhs))


class RewriteRule:
    __slots__ = ("lhs", "rhs", "derived")

    def __init__(self, lhs, rhs, derived=False):
        self.lhs = lhs          # word (tuple of letter indices)
        self.rhs = rhs          # dict word -> CycScalar
        self.derived = derived  # auto-installed inverse variant


class RewriteSystem:
    """Letter table plus oriented rules plus a memoizing normalizer."""

    step_budget = 10 ** 6       # rewrite steps allowed per normalize call

    def __init__(self, table, p):
        self.table = table
        self.p = p
        self.rules = []
        self._rules_by_first = {}
        self._nf_cache = {}
        self._max_lhs = 0
        self._sort_table = None
        self._relations = None     # built on first use by `relations`

    # -- scalars -------------------------------------------------------

    def one(self):
        return cyc_one(self.p)

    def zero(self):
        return cyc_zero(self.p)

    def scalar(self, value):
        if isinstance(value, CycScalar):
            if value.p != self.p:
                raise ValueError("scalar has wrong cyclotomic order")
            return value
        return CycScalar.from_rational(self.p, value)

    # -- encoding ------------------------------------------------------

    def encode_letter(self, name, exp=1):
        if exp == 1 and name in self.table.by_display:
            return self.table.by_display[name]
        if exp == -1:
            i = self.table.by_display.get(name + "^-1")
            if i is not None:
                return i
        raise UnknownGeneratorError("unknown letter %r^%d" % (name, exp))

    def encode_word(self, factors):
        """factors: sequence of (name, exp) with arbitrary integer exp.

        A power g^k is the reduced word of |k| letters g or g^-1, so
        `LetterTable.concat` of the powers cancels across the factors.
        """
        # dg^-1 is no letter, so encode_letter refuses it
        return self.table.concat(*(
            (self.encode_letter(name, 1 if exp > 0 else -1),) * abs(exp)
            for name, exp in factors if exp))

    def add_rule(self, spec: RuleSpec):
        lhs = self.encode_word(spec.lhs)
        if not lhs:
            raise ValueError("rule lhs must be a nonempty word")
        rhs = {}
        for coeff, wspec in spec.rhs:
            c = self.scalar(coeff)
            if not c:
                continue
            w = self.encode_word(wspec)
            rhs[w] = rhs.get(w, self.zero()) + c
        rhs = {w: c for w, c in rhs.items() if c}
        for w in rhs:
            if word_key(w) >= word_key(lhs):
                raise ValueError(
                    "rule %s does not decrease: rhs word %s is not smaller"
                    % (self.word_str(lhs), self.word_str(w)))
        return self._install(RewriteRule(lhs, rhs))

    def _install(self, rule):
        """Register a rule and drop what was built for the previous rule set."""
        self.rules.append(rule)
        self._rules_by_first.setdefault(rule.lhs[0], []).append(rule)
        self._max_lhs = max(self._max_lhs, len(rule.lhs))
        self._nf_cache.clear()
        self._sort_table = None
        self._relations = None
        return rule

    def install_inverse_variants(self):
        """Derived variants of two-letter swap rules a b -> c b a.

        Conjugating the relation by inverses of its letters yields the
        rules a b^-1 -> c^-1 b^-1 a, a^-1 b -> c^-1 b a^-1 and
        a^-1 b^-1 -> c b^-1 a^-1, installed when the inverse letters
        exist and no rule with that lhs was declared.  The rules are then
        complete, so the sort table is compiled if they allow one.
        """
        existing = {r.lhs for r in self.rules}
        inv = self.table.inverse_of
        for rule in list(self.rules):
            if len(rule.lhs) != 2 or len(rule.rhs) != 1:
                continue
            (word, coeff), = rule.rhs.items()
            a, b = rule.lhs
            if word != (b, a):
                continue
            variants = []
            if b in inv:
                variants.append(((a, inv[b]), (inv[b], a), coeff.inverse()))
            if a in inv:
                variants.append(((inv[a], b), (b, inv[a]), coeff.inverse()))
            if a in inv and b in inv:
                variants.append(((inv[a], inv[b]), (inv[b], inv[a]), coeff))
            for lhs, rw, c in variants:
                if lhs in existing:
                    continue
                if word_key(rw) >= word_key(lhs):
                    raise DerivedVariantError(
                        "derived variant %s of rule %s does not decrease"
                        % (self._swap_str(lhs, rw, c),
                           self._swap_str(rule.lhs, word, coeff)), rule)
                self._install(RewriteRule(lhs, {rw: c}, derived=True))
                existing.add(lhs)
        self._sort_table = SortTable.compile(self)

    def relations(self):
        """Every installed rule as (description, lhs, rhs, lhs - rhs, whether
        it relates 0-forms), built once per rule set and kept until a rule
        is added; the caller must not change the list."""
        if self._relations is None:
            deg = self.table.word_degree
            out = []
            for rule in self.rules:
                lhs = Element(self, {rule.lhs: self.one()}, normal=True)
                rhs = Element(self, dict(rule.rhs), normal=True)
                rel = lhs - rhs
                tag = "derived " if rule.derived else ""
                out.append(("%srule %s" % (tag, self.word_str(rule.lhs)),
                            lhs, rhs, rel, not any(map(deg, rel.terms))))
            self._relations = out
        return self._relations

    # -- rewriting -----------------------------------------------------

    def _find_redex(self, word, start):
        """Leftmost redex at or after `start`: (i, first rule matching at i)."""
        by_first = self._rules_by_first
        for i in range(start, len(word)):
            rules = by_first.get(word[i])
            if not rules:
                continue
            for rule in rules:
                lhs = rule.lhs
                if word[i:i + len(lhs)] == lhs:
                    return i, rule
        return None

    def reduce_word(self, word):
        """Normal form of a single word, as a dict word -> scalar, cached.

        On a q-commutation system (see `SortTable`) the word is sorted and
        no rule is applied: its rules are locally confluent, so by the
        diamond lemma the sorted word is the one normal form every
        reduction reaches.  Any other system goes through `rewrite_word`.
        """
        hit = self._nf_cache.get(word)
        if hit is not None:
            return hit
        if self._sort_table is None:
            return self.rewrite_word(word)
        out = self._nf_cache[word] = self._sort_table.reduce(word)
        return out

    def rewrite_word(self, word):
        """Normal form of a single word by rewriting, caching every word
        met on the way.

        Always rewrites the leftmost redex with the first matching rule,
        so the rewrite sequence is canonical.  Each stacked word carries
        the position where its redex scan starts: rewriting w = pre lhs suf
        at its leftmost redex i gives w' = concat(pre, rw, suf), and c
        cancelled inverse pairs remove at most c letters of pre, so w' keeps
        pre[:i - c], which holds no redex.  Every window of w' ending there
        is a window of pre, so no redex of w' starts before
        max(0, i - c - (L - 1)), with L the longest lhs.  A step therefore
        scans O(L) letters instead of the whole word.
        """
        cache = self._nf_cache
        budget = self.step_budget
        steps = 0
        concat = self.table.concat
        reach = self._max_lhs - 1
        expansions = {}
        stack = [(word, 0)]
        while stack:
            w, start = stack[-1]
            if w in cache:
                stack.pop()
                continue
            exp = expansions.get(w)
            if exp is None:
                m = self._find_redex(w, start)
                if m is None:
                    cache[w] = {w: self.one()}
                    stack.pop()
                    continue
                i, rule = m
                steps += 1
                if steps > budget:
                    text = self.word_str(word)
                    if len(text) > 80:
                        text = text[:77] + "..."
                    raise ReductionBudgetExceeded(
                        "rewrite budget of %d steps exceeded reducing %s; last rule "
                        "applied: %s -> ..." % (budget, text, self.word_str(rule.lhs)))
                j = i + len(rule.lhs)
                pre, suf = w[:i], w[j:]
                kept = len(w) - j + i      # letters of pre and suf
                exp = []
                for rw, c in rule.rhs.items():
                    nw = concat(pre, rw, suf)
                    cancelled = (kept + len(rw) - len(nw)) // 2
                    exp.append((nw, c, max(0, i - cancelled - reach)))
                expansions[w] = exp
            pending = [(wi, hi) for wi, _, hi in exp if wi not in cache]
            if pending:
                stack.extend(pending)
                continue
            out = {}
            for wi, ci, _ in exp:
                for wf, cf in cache[wi].items():
                    acc = out.get(wf)
                    acc = ci * cf if acc is None else acc + ci * cf
                    if acc:
                        out[wf] = acc
                    elif wf in out:
                        del out[wf]
            cache[w] = out
            del expansions[w]
            stack.pop()
        return cache[word]

    def normalize_terms(self, terms):
        out = {}
        for w, c in terms.items():
            if not c:
                continue
            for wf, cf in self.reduce_word(w).items():
                acc = out.get(wf)
                acc = c * cf if acc is None else acc + c * cf
                if acc:
                    out[wf] = acc
                elif wf in out:
                    del out[wf]
        return out

    def leibniz(self, x, image, signed):
        """Extend a per-letter substitution over the words of x by Leibniz.

        Every letter li of every word w of x is replaced in turn by the
        terms of image(li), a dict word -> scalar (None or {} for zero);
        with `signed`, that replacement also takes the sign (-1)^k, k the
        number of differentials before li.  The raw words are summed in one
        dict and normalized once, which on a confluent presentation equals
        normalizing pre * image * suf piece by piece (diamond lemma).

        With a sort table, a run g^r at position j and an image term
        (iw, ic) give the one raw word concat(w[:j], iw, w[j+1:]) with
        coefficient c ic S, S = `SortTable.run_sum`, in place of the r
        words pre g^k iw g^(r-1-k) suf.  This is exact: the sorted normal
        form's coefficient is a product over the pairs of letters out of
        order, so moving k copies of g left past iw multiplies it by rho^k
        and leaves the letter counts, hence the word and a square-zero
        verdict, alone; cancelling g against g^-1 costs no scalar.  The sign
        (-1)^k of the k-th copy of a differential under `signed` is sigma^k.
        Without a sort table every letter is its own run.
        """
        if x.system is not self:
            raise ValueError("element belongs to a different calculus")
        concat = self.table.concat
        isd = self.table.is_diff
        sort = self._sort_table
        raw = {}
        for w, c in x.terms.items():
            j, n = 0, len(w)
            while j < n:
                li = w[j]
                r = 1
                if sort is not None:
                    while j + r < n and w[j + r] == li:
                        r += 1
                flip = signed and isd[li]
                sub = image(li)
                if sub:
                    pre, suf = w[:j], w[j + 1:]
                    for iw, ic in sub.items():
                        key = concat(pre, iw, suf)
                        v = c * ic
                        if r > 1:
                            v = v * sort.run_sum(li, iw, r, flip)
                        acc = raw.get(key)
                        raw[key] = v if acc is None else acc + v
                if flip and r & 1:
                    c = -c
                j += r
        return Element(self, raw)

    # -- display -------------------------------------------------------

    def _swap_str(self, lhs, rhs, coeff):
        return "%s -> %s" % (self.word_str(lhs),
                             Element(self, {rhs: coeff}, normal=True))

    def word_str(self, word):
        if not word:
            return "1"
        parts = []
        letters = self.table.letters
        for li, run in groupby(word):
            lt = letters[li]
            count = len(list(run))
            if lt.diff:
                parts.extend([lt.display] * count)
            else:
                e = lt.exp * count
                parts.append(lt.base if e == 1 else "%s^%d" % (lt.base, e))
        return " ".join(parts)


class SortTable:
    """Normal forms of a q-commutation system by a weighted sort.

    `compile` returns None unless the system is one (see the module
    docstring).  The normal form of a word is its letters in precedence
    order, with g and g^-1 cancelled; its coefficient is the product of
    c(x, y)^n over the swap rules x y -> c(x, y) y x, n counting the
    letters x that stand before a y.  g and g^-1 swap for free.  A swap
    scalar +-q^k is kept as a sign and an exponent, which `reduce` adds n
    times into two running ints in the one pass over the word; so on the
    torus a coefficient costs no scalar product, only a look-up in a table
    of signed powers.  Any other swap scalar c gets a count of its own, and
    c is raised to it once, at the end.  The counts are updated once per
    run of equal letters, so a word costs its runs: u^25 v^24 takes two
    updates, not 49.  For the same reason a Leibniz run g^r costs one
    normal form times `run_sum`, the q-number sum_{k<r} (sigma rho)^k
    built from the per-letter table `past` of what g gains moving left
    past each letter.
    """

    def __init__(self, powers, above, past, emit):
        self.powers = powers    # (q^k, -q^k) for k = 0 .. p-1
        # letter y -> ((x, sign, exponent, None) or (x, 0, 0, c), ...) over
        # the letters x > y, for the swap x y -> (-1)^sign q^exponent y x or
        # x y -> c y x
        self.above = above
        # past[g][x]: what g gains moving left past x, c(g, x) for x < g and
        # c(x, g)^-1 for x > g, as (sign, exponent, None) or (0, 0, c);
        # (0, 0, None) for x = g and x = g^-1
        self.past = past
        self.emit = emit        # (letter, its inverse or None, square-zero)

    @classmethod
    def compile(cls, system):
        """The table of a finished q-commutation system, else None."""
        table, p = system.table, system.p
        inv = table.inverse_of
        n = len(table.letters)
        swaps, square_zero, seen = {}, set(), set()
        for rule in system.rules:
            lhs, rhs = rule.lhs, rule.rhs
            if len(lhs) != 2 or lhs in seen:
                return None
            seen.add(lhs)
            a, b = lhs
            if a == b and not rhs and a not in inv:
                square_zero.add(a)
            elif a > b and list(rhs) == [(b, a)]:
                swaps[lhs] = rhs[b, a]
            else:
                return None
        if any(abs(g - h) != 1 for g, h in inv.items()):
            return None
        pairs = [(x, y) for x in range(n) for y in range(x) if inv.get(x) != y]
        if any(pair not in swaps for pair in pairs):
            return None
        for g, h in inv.items():
            for y in range(n):
                if y != g and y != h and (swaps[max(g, y), min(g, y)]
                                          * swaps[max(h, y), min(h, y)] != 1):
                    return None
        powers = tuple(q_power(p, k) for k in range(p))
        signed = {}
        for k, qk in enumerate(powers):
            signed[-qk], signed[qk] = (1, k, None), (0, k, None)
        above = tuple(tuple((x,) + signed.get(swaps[x, y], (0, 0, swaps[x, y]))
                            for x in range(y + 1, n) if inv.get(x) != y)
                      for y in range(n))
        past = [[(0, 0, None)] * n for _ in range(n)]
        for y in range(n):
            for x, s, e, c in above[y]:
                past[x][y] = s, e, c
                past[y][x] = (s, -e % p, None) if c is None else (0, 0, c.inverse())
        emit = tuple((li, inv.get(li), li in square_zero) for li in range(n)
                     if inv.get(li, n) > li)
        return cls(tuple((qk, -qk) for qk in powers), above, past, emit)

    def run_sum(self, g, iw, r, flip):
        """S = sum_{k<r} (sigma rho)^k: the scalar by which the normal form of
        pre iw g^(r-1) suf stands for the r words pre g^k iw g^(r-1-k) suf.

        rho is what a copy of g gains moving left past the letters of iw,
        and sigma = -1 when `flip` (a signed call on a differential g), else
        1.  For a +-q^k rho, (sigma rho)^k repeats with a period L dividing
        2p, so S is min(r, L) rows of the power table added as ints; for
        any other, S = (x^r - 1) / (x - 1) in the field Q(q), x = sigma rho,
        or r when x = 1.
        """
        past = self.past[g]
        sign, exponent, general = flip, 0, None
        for x in iw:
            s, e, c = past[x]
            sign += s
            exponent += e
            if c is not None:
                general = c if general is None else general * c
        p = len(self.powers)
        if general is not None:
            x = self.powers[exponent % p][sign & 1] * general
            if x == 1:
                return CycScalar.from_rational(p, r)
            return (x ** r - 1) / (x - 1)
        exponent %= p
        period = p // gcd(exponent, p) * (2 if sign & 1 else 1)
        full, rest = divmod(r, period)
        rows = _power_table(p)
        nums = [0] * euler_phi(p)
        for k in range(min(r, period)):
            m = full + (k < rest)
            if k * sign & 1:
                m = -m
            for i, t in rows[k * exponent % p]:
                nums[i] += m * t
        return _canonical(p, nums, 1)

    def reduce(self, word):
        """The normal form of `word` as a dict word -> scalar."""
        above = self.above
        counts = [0] * len(above)
        sign = exponent = 0
        general = {}            # c -> its count, for each scalar c not +-q^k
        i, n = 0, len(word)
        while i < n:
            # a run of r letters y puts r y's after each x counted so far
            y = word[i]
            j = i + 1
            while j < n and word[j] == y:
                j += 1
            r = j - i
            for x, s, e, c in above[y]:
                m = r * counts[x]
                if m:
                    sign += s * m
                    exponent += e * m
                    if c is not None:
                        general[c] = general.get(c, 0) + m
            counts[y] += r
            i = j
        out = []
        for li, h, square_zero in self.emit:
            k = counts[li]
            if h is not None:
                k -= counts[h]
                if k < 0:
                    li, k = h, -k
            elif square_zero and k > 1:
                return {}
            out += [li] * k
        scalar = self.powers[exponent % len(self.powers)][sign & 1]
        for c, m in general.items():
            scalar = scalar * c ** m
        return {tuple(out): scalar}


class Element(Form):
    """A finite scalar-linear combination of words, kept in normal form.

    No stored coefficient is zero: the constructor drops the zeros of the
    dict it is given (through `normalize_terms` unless `normal`), so
    operations hand it their raw sums.
    """

    __slots__ = ("system", "terms")
    _printer = "element_str"

    def __init__(self, system, terms, normal=False):
        self.system = system
        if normal:
            self.terms = {w: c for w, c in terms.items() if c}
        else:
            self.terms = system.normalize_terms(terms)

    @classmethod
    def zero(cls, system):
        return cls(system, {}, normal=True)

    @classmethod
    def one(cls, system):
        return cls(system, {(): system.one()}, normal=True)

    def _check(self, other):
        if self.system is not other.system:
            raise ValueError("elements belong to different presentations")

    def __add__(self, other):
        if other.__class__ is not Element:
            if not isinstance(other, (int, Fraction, CycScalar)):
                return NotImplemented
            other = Element(self.system, {(): self.system.scalar(other)}, normal=True)
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return Element(self.system, out, normal=True)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.system, {w: -c for w, c in self.terms.items()}, normal=True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Element:
            if not isinstance(other, (int, Fraction, CycScalar)):
                return NotImplemented
            c0 = self.system.scalar(other)
            if not c0:
                return Element.zero(self.system)
            return Element(self.system, {w: c * c0 for w, c in self.terms.items()},
                           normal=True)
        self._check(other)
        concat = self.system.table.concat
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = concat(w1, w2)
                acc = raw.get(w)
                raw[w] = c1 * c2 if acc is None else acc + c1 * c2
        return Element(self.system, raw)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return power(self, k, Element.one(self.system))

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = Element(self.system, {(): self.system.scalar(other)}, normal=True)
        if not isinstance(other, Element):
            return NotImplemented
        return self.system is other.system and self.terms == other.terms

    def degrees(self):
        deg = self.system.table.word_degree
        return sorted({deg(w) for w in self.terms})


# -- letter tables -----------------------------------------------------


def _build_table(generators, letter_order):
    """letter_order: display names; inverse letters are inserted after
    their base letter when not listed explicitly."""
    gen_by_name = {g.name: g for g in generators}
    letters = []
    for disp in letter_order:
        if disp in gen_by_name:
            g = gen_by_name[disp]
            letters.append(Letter(g.name, 1))
            if g.invertible and disp + "^-1" not in letter_order:
                letters.append(Letter(g.name, -1))
        elif disp.endswith("^-1") and disp[:-3] in gen_by_name:
            letters.append(Letter(disp[:-3], -1))
        elif disp.startswith("d") and disp[1:] in gen_by_name:
            letters.append(Letter(disp[1:], 1, diff=True))
        else:
            raise UnknownGeneratorError("letter %r refers to no generator" % disp)
    return LetterTable(letters)


# -- local confluence ---------------------------------------------------


class CriticalPair(Record):
    __slots__ = ("word", "rule_a", "rule_b", "joinable")

    def __init__(self, word, rule_a, rule_b, joinable):
        self.word, self.rule_a, self.rule_b = word, rule_a, rule_b
        self.joinable = joinable

    def describe(self, system):
        kind = "joinable" if self.joinable else "NOT JOINABLE"
        return "%s: %s  (%s -> ... <- %s)" % (
            kind, system.word_str(self.word),
            system.word_str(self.rule_a.lhs), system.word_str(self.rule_b.lhs))


class ConfluenceReport(Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs=None):
        self.pairs = [] if pairs is None else pairs

    @property
    def all_joinable(self):
        return all(p.joinable for p in self.pairs)

    def failures(self):
        return [p for p in self.pairs if not p.joinable]

    def summary(self, system=None):
        lines = ["critical pairs: %d, joinable: %d, failing: %d" % (
            len(self.pairs), sum(p.joinable for p in self.pairs),
            len(self.failures()))]
        if system is not None:
            for p in self.pairs:
                lines.append("  " + p.describe(system))
        return "\n".join(lines)


def _cancellation_rules(system):
    out = []
    for i, j in system.table.inverse_of.items():
        out.append(RewriteRule((i, j), {(): system.one()}, derived=True))
    return out


def check_local_confluence(calculus) -> ConfluenceReport:
    """Diamond-lemma check: reduce both branches of every overlap.

    Overlaps with the implicit cancellation rules g g^-1 -> 1 of
    invertible generators are included.  Completion is out of scope: a
    failing pair is reported, not repaired.
    """
    system = calculus.system
    rules = list(system.rules) + _cancellation_rules(system)
    report = ConfluenceReport()

    def record(word, ra, rb, terms_a, terms_b):
        na, nb = system.normalize_terms(terms_a), system.normalize_terms(terms_b)
        report.pairs.append(CriticalPair(word, ra, rb, na == nb))

    def apply_at(word, i, rule):
        pre, suf = word[:i], word[i + len(rule.lhs):]
        return {system.table.concat(pre, rw, suf): c for rw, c in rule.rhs.items()}

    for ra in rules:
        for rb in rules:
            la, lb = ra.lhs, rb.lhs
            # identical left-hand sides of distinct rules
            if ra is not rb and la == lb:
                record(la, ra, rb, dict(ra.rhs), dict(rb.rhs))
                continue
            # proper overlap: suffix of la = prefix of lb
            for k in range(1, min(len(la), len(lb))):
                if la[len(la) - k:] == lb[:k]:
                    word = la + lb[k:]
                    record(word, ra, rb,
                           apply_at(word, 0, ra),
                           apply_at(word, len(la) - k, rb))
            # inclusion: lb strictly inside la
            if ra is not rb and len(lb) < len(la):
                for i in range(len(la) - len(lb) + 1):
                    if la[i:i + len(lb)] == lb:
                        record(la, ra, rb, dict(ra.rhs), apply_at(la, i, rb))
    return report
