"""Expected values for every benchmark op, fixed outside the code under test.

Each function here computes an answer from a closed formula or a hand
derivation, using only the standard library.  The workloads turn these
plain values (Fractions, exponents, strings) into the program's types
only to compare them, after the op's timer has stopped.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple


def torus_is_hamiltonian(p, a, b):
    """u^a v^b is Hamiltonian on the torus at order p iff p | a and p | b.

    Holds on the [-6, 6]^2 grid for ansatz bound B >= 6.
    """
    return a % p == 0 and b % p == 0


def torus_bracket(p, s, t, s2, t2):
    """{u^(sp) v^(tp), u^(s'p) v^(t'p)} as {(u exponent, v exponent): coeff}."""
    coeff = (t * s2 - t2 * s) * p * p
    return {((s + s2) * p, (t + t2) * p): Fraction(coeff)} if coeff else {}


def torus_flow(p, s, t, alpha, gamma, order):
    """Coefficients of exp(t X_b)(u^alpha v^gamma) for b = u^(sp) v^(tp).

    X_b(u^a v^c) = p (t a - s c) u^(a+sp) v^(c+tp), and t a - s c is
    invariant along the orbit, so coefficient k is
    (p (t alpha - s gamma))^k / k! u^(alpha+ksp) v^(gamma+ktp).
    """
    lam = p * (t * alpha - s * gamma)
    out = []
    for k in range(order + 1):
        c = Fraction(lam ** k, factorial(k))
        out.append({(alpha + k * s * p, gamma + k * t * p): c} if c else {})
    return out


def cuntz_bracket(k, l, r, m):
    """{s_k s_l*, s_r s_m*} = delta_lr s_k s_m* - delta_mk s_r s_l*.

    Returned as a list of (coefficient, (i, j)) meaning coefficient s_i s_j*.
    """
    out = []
    if l == r:
        out.append((1, (k, m)))
    if m == k:
        out.append((-1, (r, l)))
    return out


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][q] * b[q][j] for q in range(n)) for j in range(n)]
            for i in range(n)]


def mat_commutator(a, b):
    """[a, b] for square matrices of Fractions given as nested lists."""
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(len(a))]
            for i in range(len(a))]


def so_basis(n):
    """E_ij - E_ji for i < j, as nested lists of Fractions."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[i][j], m[j][i] = Fraction(1), Fraction(-1)
            out.append(m)
    return out


def polymat_bracket(i1, j1, i2, j2):
    """{T + f I, R + g I} = (f_y g_x - f_x g_y) I for f = x^i1 y^j1,
    g = x^i2 y^j2, T and R multiples of E12 - E21.

    Returns (coefficient, x exponent, y exponent) of the scalar part.
    """
    coeff = j1 * i2 - i1 * j2
    if coeff == 0:
        return (0, 0, 0)
    return (coeff, i1 + i2 - 1, j1 + j2 - 1)


# -- command line cases ------------------------------------------------------


class CliCase(NamedTuple):
    """One `ncham` invocation and the outcome the exit-code contract fixes.

    `stdout` is the whole standard output, or only its first line when
    `first_line` is set.  `stderr` must occur in the standard error.  A
    case with a `defect` note does not meet the contract today; it counts
    as a failed op until the program is fixed.
    """

    argv: list
    code: int
    stdout: str
    stderr: str = ""
    defect: str = ""
    first_line: bool = False


_CHECK_CUNTZ2 = "\n".join([
    "PASS local confluence 8 critical pairs",
    "PASS d omega = 0",
    "PASS ansatz consistency 3 derivations",
    "PASS omega_tilde injective omega_tilde kernel: 0 (nonsingular on the "
    "ansatz)",
] + ["PASS %s (5 trials, seed 3)" % name for name in (
    "magic formula", "d L = L d", "L/iprod commutation",
    "iprod antisymmetry", "Lie commutator")])

# stdout comes from the README and the CLI golden tests, or is derived by
# hand from the model's relations; the derivation is noted where it is not
# a golden.
CLI_CASES = [
    CliCase(["--model", "torus:p=2", "bracket", "u^2 v^2", "u^2 v^4"],
            0, "-4 u^4 v^6"),
    CliCase(["--model", "cuntz:n=2", "bracket", "s1 s2*", "s2 s1*"],
            0, "2 s1 s1* - 1"),
    # the traceless part of theta[s_k s_l*] for n = 3 has 3^2 - 1 members
    CliCase(["--model", "cuntz:n=3", "is-hamiltonian", "s1 s2*"],
            0, "HAMILTONIAN (relative to ansatz of 8 derivations)"),
    # B = 3 gives 2 (2*3 + 1)^2 = 98 torus derivations
    CliCase(["--model", "torus:p=2", "is-hamiltonian", "u"],
            1, "NOT_HAMILTONIAN (relative to ansatz of 98 derivations)"),
    CliCase(["--model", "torus:p=2", "normalize", "v u"], 0, "-u v"),
    CliCase(["--model", "torus:p=2", "hamvec", "u^2 v^2"],
            0, "X(u) = 2 u^3 v^2\nX(v) = -2 u^2 v^3"),
    # X = ad_S for S = E12 - E21: X(E_ij) = S E_ij - E_ij S
    CliCase(["--model", "matrix:n=3", "hamvec", "E12 - E21"],
            0, "X(E11) = -E12 - E21\nX(E12) = E11 - E22\nX(E13) = -E23\n"
               "X(E21) = E11 - E22\nX(E22) = E12 + E21\nX(E23) = E13\n"
               "X(E31) = -E32\nX(E32) = E31"),
    # torus_flow(2, 1, 1, 1, 0, 3)
    CliCase(["--model", "torus:p=2", "flow", "u^2 v^2", "u", "--order", "3"],
            0, "u + t (2 u^3 v^2) + t^2 (2 u^5 v^4) + t^3 (4/3 u^7 v^6)"),
    # exp(t ad S) E11 to order 2 for S = E12 - E21
    CliCase(["--model", "matrix:n=2", "flow", "E12 - E21", "E11",
             "--order", "2"],
            0, "E11 + t (-E12 - E21) + t^2 (-E11 + E22)"),
    # cuntz_bracket: {s1 s2*, s2 s1*} = s1 s1* - s2 s2* = 2 s1 s1* - 1,
    # then 2 {s1 s2*, s1 s1*} / 2! = -s1 s2*
    CliCase(["--model", "cuntz:n=2", "flow", "s1 s2*", "s2 s1*",
             "--order", "2"],
            0, "s2 s1* + t (2 s1 s1* - 1) + t^2 (-s1 s2*)"),
    CliCase(["--model", "cuntz:n=2", "check", "--count", "5", "--seed", "3"],
            0, _CHECK_CUNTZ2),
    CliCase(["--model", "cuntz:n=2", "confluence"],
            0, "critical pairs: 8, joinable: 8, failing: 0", first_line=True),
    # q^2 = -1 - q in Q[q]/(q^2 + q + 1)
    CliCase(["--model", "torus:p=3", "normalize", "2/3 q^2 u^2 v^-1",
             "--format", "json"],
            0, '{\n  "result": "(-2/3 - 2/3q) u^2 v^-1",\n  "status": "ok"\n}'),
    # d(u v) = du v + u dv, and u dv = q dv u with q = -1
    CliCase(["--model", "torus:p=2", "d", "u v"], 0, "du v - dv u"),
    CliCase(["--model", "torus:p=2", "iprod",
             "u -> 2 u^3 v^2, v -> -2 u^2 v^3", "du"], 0, "2 u^3 v^2"),
    CliCase(["--model", "torus:p=2", "lie",
             "u -> 2 u^3 v^2, v -> -2 u^2 v^3", "u"], 0, "2 u^3 v^2"),
    CliCase(["--model", "matrix:n=2", "lie", "S: E12 - E21", "E11"],
            0, "-E12 - E21"),
    # polymat_bracket(1, 0, 0, 1) = -1, and I renders as E11 + E22
    CliCase(["--model", "polymat:D=3", "bracket", "2 (E12 - E21) + x",
             "-3 (E12 - E21) + y"], 0, "-E11 - E22"),
    CliCase(["--model", "torus:p=2", "normalize", "u^300 v^-200"],
            0, "u^300 v^-200"),
    CliCase(["--model", "torus:p=2", "normalize", "du^-1"],
            2, "", "differentials are not invertible"),
    CliCase(["--model", "torus:p=2", "normalize", "u +* v"],
            2, "", "unexpected token"),
    CliCase(["--model", "torus:p=2", "normalize", "1/0"],
            2, "", "error:", "raises ZeroDivisionError"),
    CliCase(["--model", "torus:p=2", "normalize",
             "(" * 3000 + "u" + ")" * 3000],
            2, "", "error:", "raises RecursionError"),
]
