"""A second word reducer, kept in the tests as an oracle for reduce_word.

It rewrites a redex chosen at random at every step and caches nothing.
On a locally confluent terminating system every reduction path ends at
the one normal form (Bergman's diamond lemma, 1978), so whatever the
random choices it must agree with `RewriteSystem.reduce_word`.  It reads
only the public `rules`, `table.concat` and `step_budget` of the system.
"""

from ncham.algebra import ReductionBudgetExceeded


def reduce_word_randomized(system, word, rng):
    """The normal form of `word` as a dict word -> scalar."""
    terms = {word: system.one()}
    steps = 0
    while True:
        redexes = [(w, i, rule) for w in terms for rule in system.rules
                   for i in range(len(w) - len(rule.lhs) + 1)
                   if w[i:i + len(rule.lhs)] == rule.lhs]
        if not redexes:
            return terms
        w, i, rule = redexes[rng.randrange(len(redexes))]
        steps += 1
        if steps > system.step_budget:
            raise ReductionBudgetExceeded("randomized reduction exceeded "
                                          "budget")
        c = terms.pop(w)
        pre, suf = w[:i], w[i + len(rule.lhs):]
        for rw, rc in rule.rhs.items():
            nw = system.table.concat(pre, rw, suf)
            acc = terms.get(nw, system.zero()) + c * rc
            if acc:
                terms[nw] = acc
            elif nw in terms:
                del terms[nw]
